#include "workload/replicate.h"

#include "common/strings.h"

namespace ses::workload {

Result<EventRelation> ReplicateDataset(const EventRelation& relation,
                                       int factor) {
  if (factor < 1) {
    return Status::InvalidArgument("replication factor must be >= 1");
  }
  for (size_t i = 1; i < relation.size(); ++i) {
    Timestamp gap = relation.event(i).timestamp() -
                    relation.event(i - 1).timestamp();
    if (gap < factor) {
      return Status::FailedPrecondition(strings::Format(
          "gap of %lld ticks before event %zu is too small for factor %d",
          static_cast<long long>(gap), i, factor));
    }
  }
  EventRelation replicated(relation.schema());
  replicated.Reserve(relation.size() * static_cast<size_t>(factor));
  for (const Event& event : relation) {
    for (int k = 0; k < factor; ++k) {
      replicated.AppendUnchecked(event.timestamp() + k, event.values());
    }
  }
  return replicated;
}

}  // namespace ses::workload
