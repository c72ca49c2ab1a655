#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the benchmark program: clocks, order statistics, the
// order-independent match digest, the in-memory span recorder, and the
// metric list printed as the final JSON line.

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/match.h"

namespace perfbench {

// --- Clocks ---

/// Monotonic wall clock, ns.
int64_t NowNs();

/// CPU time (user + sys, all threads) of this process, ns.
int64_t SelfCpuNs();

/// CPU time (user + sys, all threads) of another live process, ns, through
/// its POSIX CPU-time clock; -1 when the clock cannot be read.
int64_t ProcessCpuNs(pid_t pid);

/// Peak resident set (VmHWM) of `pid` (0 = this process), KiB; -1 if
/// unknown.
int64_t PeakRssKb(pid_t pid);

/// Pins the calling thread to the index-th (modulo) CPU the process may
/// run on, restoring the previous affinity on destruction. Single-threaded
/// rounds rotate through the CPUs with it, so a run samples every core
/// equally instead of whichever one the scheduler settled on: on a shared
/// host, cores slow down and recover independently of each other.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int index);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// --- Order statistics ---

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted);
/// 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// --- Match digest ---

/// Count plus an order-independent digest of a match multiset: the sum
/// (mod 2^64) of a mixed hash of each match's substitution key, so two
/// evaluators agree iff they delivered the same substitutions, whatever the
/// delivery order.
struct MatchTally {
  int64_t count = 0;
  uint64_t digest = 0;

  void Add(const ses::Match& match);
  bool operator==(const MatchTally& other) const = default;
  std::string ToString() const;
};

// --- Spans ---

/// One recorded span. `parent` indexes the recorder's span list (-1 for a
/// root); `run` groups the spans of one benchmark phase (an end-to-end
/// round, the path replay, the layer replays).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

/// In-memory span store, written out once at exit. Thread-safe; spans are
/// opened and closed by index so a child can name a parent opened on
/// another thread.
class Tracer {
 public:
  int Begin(std::string name, int parent, int run);
  void End(int span);
  std::vector<Span> spans() const;

  /// Sum of self time (duration minus the time covered by direct children)
  /// per span name, over the spans of `run`.
  std::map<std::string, int64_t> SelfTimeByName(int run) const;

  /// Writes one tab-separated line per span (id, parent, run, name, start,
  /// end, self) to `path`.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. A null
/// tracer records nothing (the untraced fast path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent, int run)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(std::move(name), parent, run) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// --- Result line ---

/// The metrics of one benchmark run, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// The run's final stdout line: {"correct", "attempted", "failed",
/// "metrics"}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
