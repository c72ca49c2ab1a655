// perfbench — the repository benchmark program (see ../README.md).
//
//   perfbench --workload paper_batch|wire_stream|wire_fanout --seed N
//             --seconds S --trace 0|1 --server-bin PATH --out-dir DIR
//
// --trace 0 measures the end-to-end metrics: after one warm-up round it
// repeats closed-loop rounds for S seconds and reports medians over them
// (a latency percentile is taken within windows of at least 1000 samples,
// then the median over windows). --trace 1 is the separate
// traced run: end-to-end rounds alternating with and without spans (the
// difference is the tracing overhead), then the path and layer replays of
// layers.h. Either way the last stdout line is the result JSON; progress
// and a human-readable table go to stderr.

#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "rounds.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace ses;

/// Events of the paper_batch prefix checked against ReferenceMatch.
constexpr size_t kOraclePrefix = 3000;
/// A timed phase whose processes were on CPU for less than this share of
/// its wall time (summed over generator and engine process) measured a
/// wait, not the system: the round fails.
constexpr double kMinBusyShare = 0.5;
/// Hard stop for the measuring loop, whatever --seconds says, so a run
/// always ends well inside its time limit.
constexpr double kMaxMeasureSeconds = 120;
constexpr int kMinRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string server_bin;
  std::string out_dir;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--server-bin") {
      args.server_bin = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args.workload;
  if (!known) return Status::InvalidArgument("unknown --workload");
  if (args.seconds <= 0 || (args.trace != 0 && args.trace != 1) ||
      args.server_bin.empty() || args.out_dir.empty()) {
    return Status::InvalidArgument(
        "need --seconds > 0, --trace 0|1, --server-bin and --out-dir");
  }
  return args;
}

/// Operations and failures over every check and round of the run.
struct Totals {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;

  void Fail(int64_t ops, const std::string& error) {
    failed += ops;
    if (first_error.empty()) first_error = error;
  }
};

Result<RoundResult> RunRound(const Args& args, const Workload& w,
                             Tracer* tracer, int run) {
  if (w.name == "paper_batch") return RunInProcessRound(w, tracer, run);
  return RunWireRound(w, args.server_bin, args.out_dir + "/ses_server.log",
                      tracer, run);
}

/// Runs one round and folds its operations and failures into `totals`.
Result<RoundResult> CheckedRound(const Args& args, const Workload& w,
                                 Tracer* tracer, int run, Totals* totals) {
  SES_ASSIGN_OR_RETURN(RoundResult r, RunRound(args, w, tracer, run));
  r.push_rtt_p50_us = Quantile(r.push_rtt_us, 0.50);
  r.push_rtt_p99_us = Quantile(r.push_rtt_us, 0.99);
  r.match_latency_p50_ms = Quantile(r.match_latency_ms, 0.50);
  r.match_latency_p99_ms = Quantile(r.match_latency_ms, 0.99);
  r.push_attempts = static_cast<int64_t>(r.push_rtt_us.size());
  const double busy = (r.client_cpu_s + r.server_cpu_s) / r.wall_s;
  if (r.matches_ok && busy < kMinBusyShare) {
    r.matches_ok = false;
    r.failed_ops = r.ops;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "timed phase mostly idle: CPU %.3fs over %.3fs wall",
                  r.client_cpu_s + r.server_cpu_s, r.wall_s);
    r.error = buf;
  }
  totals->attempted += r.ops;
  if (r.failed_ops > 0 || !r.matches_ok) {
    totals->Fail(std::max<int64_t>(r.failed_ops, 1), r.error);
  }
  std::fprintf(stderr,
               "  round %2d: setup %.3fs  timed %.3fs  %.0f ev/s  cpu "
               "gen %.3fs srv %.3fs  busy %lld  rtt p50/p99 %.0f/%.0fus  "
               "latency p50/p99 %.2f/%.2fms%s%s\n",
               run, r.setup_s, r.wall_s,
               static_cast<double>(r.events) / r.wall_s, r.client_cpu_s,
               r.server_cpu_s, static_cast<long long>(r.busy),
               r.push_rtt_p50_us, r.push_rtt_p99_us, r.match_latency_p50_ms,
               r.match_latency_p99_ms,
               r.error.empty() ? "" : "  ERROR: ", r.error.c_str());
  return r;
}

/// Latency samples of consecutive rounds grouped into windows of at least
/// kWindowSamples samples, so that each window's p99 has ten samples or
/// more beyond it; a run reports the median of the windows' percentiles,
/// which one slow stretch of a shared host cannot move.
class PercentileWindows {
 public:
  void Add(std::vector<double>* samples) {
    pending_.insert(pending_.end(), samples->begin(), samples->end());
    *samples = {};
    if (pending_.size() >= kWindowSamples) {
      p50_.push_back(Quantile(pending_, 0.50));
      p99_.push_back(Quantile(pending_, 0.99));
      pending_.clear();
    }
  }
  double p50() const {
    return p50_.empty() ? Quantile(pending_, 0.50) : Median(p50_);
  }
  double p99() const {
    return p99_.empty() ? Quantile(pending_, 0.99) : Median(p99_);
  }

 private:
  static constexpr size_t kWindowSamples = 1000;
  std::vector<double> pending_;
  std::vector<double> p50_;
  std::vector<double> p99_;
};

/// The measured rounds of one kind (untraced or traced).
struct Series {
  std::vector<RoundResult> rounds;
  PercentileWindows push_rtt_us;
  PercentileWindows match_latency_ms;

  void Add(RoundResult r) {
    push_rtt_us.Add(&r.push_rtt_us);
    match_latency_ms.Add(&r.match_latency_ms);
    rounds.push_back(std::move(r));
  }
};

/// Medians over rounds (latency percentiles over windows).
struct Summary {
  double throughput_eps = 0;
  double cpu_ns_per_event = 0;
  double client_cpu_ns_per_event = 0;
  double server_cpu_ns_per_event = 0;
  double server_cpu_util = 0;
  double client_cpu_util = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double flush_ms = 0;
  double busy_share = 0;
  double submit_us_p50 = 0;
  int rounds = 0;
};

Summary Summarize(const Series& series) {
  Summary s;
  std::vector<double> eps, cpu, client_cpu, server_cpu, server_util,
      client_util, setup, rss, flush, submit;
  int64_t busy = 0, pushes = 0;
  for (const RoundResult& r : series.rounds) {
    const double events = static_cast<double>(r.events);
    eps.push_back(events / r.wall_s);
    cpu.push_back((r.client_cpu_s + r.server_cpu_s) * 1e9 / events);
    client_cpu.push_back(r.client_cpu_s * 1e9 / events);
    server_cpu.push_back(r.server_cpu_s * 1e9 / events);
    server_util.push_back(r.server_cpu_s / r.wall_s);
    client_util.push_back(r.client_cpu_s / r.wall_s);
    setup.push_back(r.setup_s);
    rss.push_back(static_cast<double>(r.peak_rss_kb) / 1024.0);
    flush.push_back(r.flush_ms);
    submit.insert(submit.end(), r.submit_us.begin(), r.submit_us.end());
    busy += r.busy;
    pushes += r.push_attempts;
  }
  s.throughput_eps = Median(eps);
  s.cpu_ns_per_event = Median(cpu);
  s.client_cpu_ns_per_event = Median(client_cpu);
  s.server_cpu_ns_per_event = Median(server_cpu);
  s.server_cpu_util = Median(server_util);
  s.client_cpu_util = Median(client_util);
  s.setup_s = Median(setup);
  s.peak_rss_mb = Median(rss);
  s.flush_ms = Median(flush);
  s.submit_us_p50 = Median(submit);
  s.busy_share = pushes > 0 ? static_cast<double>(busy) / pushes : 0.0;
  s.rounds = static_cast<int>(series.rounds.size());
  return s;
}

void PrintTable(const MetricSet& metrics) {
  for (const auto& [name, value_unit] : metrics.entries()) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", name.c_str(),
                 value_unit.first, value_unit.second.c_str());
  }
}

int Run(const Args& args) {
  const int64_t run_start = NowNs();
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.out_dir.c_str());
    return 1;
  }
  Result<Workload> made = MakeWorkload(args.workload, args.seed, args.out_dir);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const Workload& w = *made;
  std::filesystem::remove(args.out_dir + "/ses_server.log", ec);
  std::fprintf(stderr, "perfbench %s seed %llu: %lld events, %zu plan(s)\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<long long>(w.total_events()), w.plans.size());

  Totals totals;
  if (w.name == "paper_batch") {
    ++totals.attempted;
    if (Status oracle = CheckAgainstReferenceMatcher(w, kOraclePrefix);
        !oracle.ok()) {
      totals.Fail(1, oracle.ToString());
    }
  }

  Tracer tracer;
  MetricSet metrics;
  int run = 0;
  Series plain, traced;
  // Warm-up round: page cache, allocator and lazy set-up; checked, not
  // reported.
  if (Result<RoundResult> warm = CheckedRound(args, w, nullptr, run++, &totals);
      !warm.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", warm.status().ToString().c_str());
    return 1;
  }
  const double budget = std::min(
      args.trace == 1 ? args.seconds / 2 : args.seconds, kMaxMeasureSeconds);
  const int64_t measure_start = NowNs();
  while (static_cast<int>(plain.rounds.size() + traced.rounds.size()) <
             (args.trace == 1 ? 2 * kMinRounds : kMinRounds) ||
         static_cast<double>(NowNs() - measure_start) / 1e9 < budget) {
    // The traced run alternates spans on and off round by round.
    const bool with_spans = args.trace == 1 && run % 2 == 0;
    Result<RoundResult> r =
        CheckedRound(args, w, with_spans ? &tracer : nullptr, run++, &totals);
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", r.status().ToString().c_str());
      return 1;
    }
    (with_spans ? traced : plain).Add(std::move(*r));
    if (static_cast<double>(NowNs() - measure_start) / 1e9 >
        kMaxMeasureSeconds) {
      break;
    }
  }
  const Summary s = Summarize(plain);

  if (args.trace == 0) {
    metrics.Set("throughput_eps", s.throughput_eps, "events/s");
    metrics.Set("cpu_ns_per_event", s.cpu_ns_per_event, "ns/event");
    metrics.Set("setup_s", s.setup_s, "s");
    metrics.Set("peak_rss_mb", s.peak_rss_mb, "MiB");
    metrics.Set("push_rtt_p50_us", plain.push_rtt_us.p50(), "us");
    metrics.Set("match_latency_p50_ms", plain.match_latency_ms.p50(), "ms");
  } else {
    LayerOutcome outcome;
    const int path_run = run++;
    const int layers_run = run++;
    if (Status replay = RunLayerReplays(w, args.out_dir, &tracer, path_run,
                                        layers_run, &metrics, &outcome);
        !replay.ok()) {
      totals.Fail(1, replay.ToString());
    }
    totals.attempted += outcome.checks + 1;
    if (outcome.failed > 0) totals.Fail(outcome.failed, outcome.first_error);
    const Summary t = Summarize(traced);
    metrics.Set("trace.overhead_share",
                s.throughput_eps > 0
                    ? 1.0 - t.throughput_eps / s.throughput_eps
                    : 0.0,
                "share");
    metrics.Set("net.busy_share", s.busy_share, "share");
    metrics.Set("net.flush_ms", s.flush_ms, "ms");
    metrics.Set("net.server_cpu_ns_per_event", s.server_cpu_ns_per_event,
                "ns/event");
    metrics.Set("net.client_cpu_ns_per_event", s.client_cpu_ns_per_event,
                "ns/event");
    metrics.Set("net.server_cpu_util", s.server_cpu_util, "share");
    metrics.Set("net.submit_plan_us_p50", s.submit_us_p50, "us");
    metrics.Set("net.push_rtt_p99_us", plain.push_rtt_us.p99(), "us");
    metrics.Set("net.match_latency_p99_ms", plain.match_latency_ms.p99(),
                "ms");
    const std::string trace_path = args.out_dir + "/trace-" + w.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".tsv";
    if (!tracer.WriteTsv(trace_path)) {
      totals.Fail(1, "cannot write " + trace_path);
    }
    std::fprintf(stderr, "bottleneck %s: %s\nspans: %s\n", w.name.c_str(),
                 outcome.verdict.c_str(), trace_path.c_str());
  }

  // Generated tables are re-made from the seed on every run.
  for (const auto& entry :
       std::filesystem::directory_iterator(args.out_dir, ec)) {
    if (entry.path().extension() == ".sestbl") {
      std::filesystem::remove(entry.path(), ec);
    }
  }

  const bool correct = totals.failed == 0;
  std::fprintf(stderr,
               "%s %s: %d measured round(s); generator cpu/wall %.3f, engine "
               "process cpu/wall %.3f; failed_share %.6g (%lld/%lld)%s%s; "
               "run took %.1fs\n",
               w.name.c_str(), args.trace ? "traced" : "end-to-end", s.rounds,
               s.client_cpu_util, s.server_cpu_util,
               totals.attempted > 0
                   ? static_cast<double>(totals.failed) / totals.attempted
                   : 0.0,
               static_cast<long long>(totals.failed),
               static_cast<long long>(totals.attempted),
               totals.first_error.empty() ? "" : "; first error: ",
               totals.first_error.c_str(),
               static_cast<double>(NowNs() - run_start) / 1e9);
  PrintTable(metrics);
  std::printf("%s\n", ResultJson(correct, std::max<int64_t>(totals.attempted, 1),
                                 totals.failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ses::Result<perfbench::Args> args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(*args);
}
