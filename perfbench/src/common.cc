#include "common.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t ReadClockNs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return -1;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t SelfCpuNs() { return ReadClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ProcessCpuNs(pid_t pid) {
  clockid_t clock{};
  if (clock_getcpuclockid(pid, &clock) != 0) return -1;
  return ReadClockNs(clock);
}

int64_t PeakRssKb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6);
    }
  }
  return -1;
}

ScopedCpuPin::ScopedCpuPin(int index) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int allowed = CPU_COUNT(&saved_);
  if (allowed <= 1) return;
  int want = index % allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
}

ScopedCpuPin::~ScopedCpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void MatchTally::Add(const ses::Match& match) {
  uint64_t h = 0x51ed270b27e3c6d5ULL;
  for (const auto& [variable, event] : match.SubstitutionKey()) {
    h = Mix(h ^ static_cast<uint64_t>(variable));
    h = Mix(h ^ static_cast<uint64_t>(event));
  }
  ++count;
  digest += h;
}

std::string MatchTally::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld/%016llx",
                static_cast<long long>(count),
                static_cast<unsigned long long>(digest));
  return buf;
}

int Tracer::Begin(std::string name, int parent, int run) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.run = run;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[span].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

/// Self time of every span: its duration minus its direct children's.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

}  // namespace

std::map<std::string, int64_t> Tracer::SelfTimeByName(int run) const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimes(all);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].run == run) out[all[i].name] += self[i];
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimes(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trun\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < all.size(); ++i) {
    std::fprintf(f, "%zu\t%d\t%d\t%s\t%lld\t%lld\t%lld\n", i, all[i].parent,
                 all[i].run, all[i].name.c_str(),
                 static_cast<long long>(all[i].start_ns),
                 static_cast<long long>(all[i].end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics.entries()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", value_unit.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           value_unit.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
