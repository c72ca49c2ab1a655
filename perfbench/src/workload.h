#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The three benchmark workloads: their generated streams, standing queries,
// slab layout, and the reference match tallies every run is checked
// against. Everything here is a function of (workload name, seed) and is
// built before any timed phase.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "common/result.h"
#include "event/columnar.h"
#include "event/relation.h"
#include "event/schema.h"

namespace perfbench {

/// One standing query, owned by client connection `client`.
struct PlanSpec {
  std::string id;
  std::string query;
  int client = 0;
};

struct Workload {
  std::string name;
  /// The stream schema, as ses_server's --schema text and parsed.
  std::string schema_text;
  ses::Schema schema;
  std::vector<PlanSpec> plans;
  /// One stream per client connection (paper_batch: one in-process
  /// stream).
  std::vector<ses::EventRelation> streams;
  /// Events per PushEvents slab / engine batch, and the slab layout.
  size_t slab_events = 256;
  bool columnar = false;
  /// Per client: the stream cut into columnar slabs of slab_events rows
  /// (built for every workload; the layer replays encode both layouts).
  std::vector<std::vector<ses::ColumnarBatch>> columnar_slabs;
  /// Reference result per plan id: an in-process CatalogEngine run over
  /// the owning client's stream.
  std::map<std::string, MatchTally> expected;
  /// A bounded sample of each plan's reference matches, for the match
  /// codec replays.
  std::map<std::string, std::vector<ses::Match>> sample_matches;
  /// paper_batch: the embedded table the timed phase reads, and the
  /// per-patient variant of P3 that partition-pure engines can run.
  std::string table_path;
  std::string partitioned_query;

  int num_clients() const { return static_cast<int>(streams.size()); }
  int64_t total_events() const;
  /// Slab index of the event with timestamp `t` in client `client`'s
  /// stream (the slab that carried a match's end event).
  size_t SlabOf(int client, ses::Timestamp t) const;
  /// Ids of the plans owned by `client`.
  std::vector<const PlanSpec*> PlansOf(int client) const;
};

/// Names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

/// Generates the workload's streams and plans from `seed`, writes the
/// paper_batch table under `out_dir`, and computes the reference tallies.
ses::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                   const std::string& out_dir);

/// paper_batch correctness anchor: the serial engine's digest over the
/// first `prefix` events must equal baseline::ReferenceMatch's.
ses::Status CheckAgainstReferenceMatcher(const Workload& workload,
                                         size_t prefix);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
