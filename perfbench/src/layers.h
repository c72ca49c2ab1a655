#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The traced run's replays: the workload's stream pushed through each
// module's public functions alone, with spans recorded around every call.
//
//   path replay   one pass along the workload's own event path (codec →
//                 loopback socket → codec → catalog → match codec for the
//                 wire workloads; table read → automaton for paper_batch),
//                 one span per stage; its self-time shares say which layer
//                 the workload is bound by.
//   layer replay  every layer measured alone over the same stream, giving
//                 the per-layer ns/event table and the layer counters.

#include <cstdint>
#include <string>

#include "common.h"
#include "common/status.h"
#include "workload.h"

namespace perfbench {

struct LayerOutcome {
  /// Differential checks made (every replay that produced matches is
  /// compared with the reference tallies) and how many failed.
  int64_t checks = 0;
  int64_t failed = 0;
  std::string first_error;
  /// "expected <layer>, observed <layer> (<share>)" plus whether the
  /// observation agrees with the workload's intended bottleneck.
  std::string verdict;
  bool verdict_agrees = true;
};

/// Runs both replays, recording spans in `tracer` under run ids
/// `path_run` and `layers_run`, and sets every per-layer metric except
/// trace.overhead_share (which needs the end-to-end rounds) in `metrics`.
ses::Status RunLayerReplays(const Workload& workload,
                            const std::string& out_dir, Tracer* tracer,
                            int path_run, int layers_run, MetricSet* metrics,
                            LayerOutcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
