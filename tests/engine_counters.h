#ifndef SES_TESTS_ENGINE_COUNTERS_H_
#define SES_TESTS_ENGINE_COUNTERS_H_

#include <string>
#include <vector>

namespace ses {

// Shared by the crash-restore matrix (checkpoint_test.cc) and the columnar
// grid (columnar_test.cc), which compare every other EngineCounters entry
// of the parallel engine exactly.

/// Counter names whose values depend on worker scheduling or push
/// granularity, not stream content: a restored parallel run may buffer and
/// batch differently than the uninterrupted one while delivering the
/// identical match set. The partition-lifecycle counters are in this set
/// because the checkpoint quiesce barrier flushes pending ingest slabs,
/// advancing shard watermarks slightly early and thereby shifting idle
/// partition eviction (and subsequent re-creation) timing.
inline std::vector<std::string> ParallelExclusions() {
  return {"max_queue_depth",  "max_buffered_matches",
          "matches_emitted_early", "batches_enqueued",
          "num_partitions",   "partitions_evicted"};
}

}  // namespace ses

#endif  // SES_TESTS_ENGINE_COUNTERS_H_
