#ifndef PERFBENCH_ROUNDS_H_
#define PERFBENCH_ROUNDS_H_

// One end-to-end round of a workload: set up (untimed for throughput, but
// reported as setup_s), run the timed phase from the first push to the
// last Flush Ack, check the delivered matches against the reference, tear
// down (untimed). A run repeats rounds until its time budget is spent and
// reports medians over them.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "common/result.h"
#include "workload.h"

namespace perfbench {

struct RoundResult {
  /// Set-up: server spawn + connect + handshake + SubmitPlan (wire), or
  /// table open + compile + engine create (in-process).
  double setup_s = 0;
  /// Timed phase: first push to last Flush Ack.
  double wall_s = 0;
  int64_t events = 0;
  /// CPU (user + sys) over the timed phase: the load generator process,
  /// and the process running the engine (ses_server; for the in-process
  /// workload the benchmark process itself, with client_cpu_s = 0).
  double client_cpu_s = 0;
  double server_cpu_s = 0;
  /// Operations are push requests (each attempt) and flushes. A failed
  /// operation returned an error; Busy answers are retried, not failed.
  int64_t ops = 0;
  int64_t failed_ops = 0;
  int64_t busy = 0;
  double flush_ms = 0;
  std::vector<double> submit_us;
  /// Raw samples, reduced to the percentiles below (and released) as soon
  /// as the round ends, so they do not inflate the next round's RSS.
  std::vector<double> push_rtt_us;
  std::vector<double> match_latency_ms;
  double push_rtt_p50_us = 0;
  double push_rtt_p99_us = 0;
  double match_latency_p50_ms = 0;
  double match_latency_p99_ms = 0;
  int64_t push_attempts = 0;
  int64_t peak_rss_kb = 0;
  /// Every plan's tally equals the reference.
  bool matches_ok = true;
  /// First error or mismatch, for the log.
  std::string error;
};

/// paper_batch: in-process serial engine over the embedded table.
ses::Result<RoundResult> RunInProcessRound(const Workload& workload,
                                           Tracer* tracer, int run);

/// wire_*: a fresh ses_server process at `server_binary`, one client
/// thread per stream.
ses::Result<RoundResult> RunWireRound(const Workload& workload,
                                      const std::string& server_binary,
                                      const std::string& log_path,
                                      Tracer* tracer, int run);

}  // namespace perfbench

#endif  // PERFBENCH_ROUNDS_H_
