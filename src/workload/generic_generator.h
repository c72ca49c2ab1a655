#ifndef SES_WORKLOAD_GENERIC_GENERATOR_H_
#define SES_WORKLOAD_GENERIC_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "event/relation.h"

namespace ses::workload {

/// A configurable synthetic event stream over ChemotherapySchema() (ID,
/// L, V, U, T), used by property tests and the theorem-validation benches
/// where precise control over type mix, partition count, and arrival rate
/// matters more than clinical plausibility.
struct StreamOptions {
  int64_t num_events = 1000;
  /// ID is drawn from [1, num_partitions] — uniformly when key_skew == 0,
  /// Zipf(num_partitions, key_skew) otherwise.
  int num_partitions = 4;
  /// Zipf exponent for the partition-key distribution. 0 keeps the uniform
  /// draw; values around 1 produce the hot-key regime that overloads one
  /// shard of the statically hashed parallel runtime (key 1 is hottest).
  double key_skew = 0.0;
  /// Event types L and their relative weights; must be non-empty.
  std::vector<std::pair<std::string, double>> type_weights = {
      {"A", 1.0}, {"B", 1.0}, {"C", 1.0}};
  /// Inter-arrival time is drawn uniformly from this inclusive range (in
  /// ticks); minimum 1 keeps timestamps strictly increasing.
  Duration min_gap = 1;
  Duration max_gap = 10;
  /// V is drawn uniformly from [0, value_range).
  int64_t value_range = 100;
  uint64_t seed = 1;
};

/// Generates the stream described by `options`.
EventRelation GenerateStream(const StreamOptions& options);

}  // namespace ses::workload

#endif  // SES_WORKLOAD_GENERIC_GENERATOR_H_
