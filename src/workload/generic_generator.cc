#include "workload/generic_generator.h"

#include <optional>

#include "common/logging.h"
#include "common/random.h"
#include "workload/paper_fixture.h"

namespace ses::workload {

EventRelation GenerateStream(const StreamOptions& options) {
  SES_CHECK(!options.type_weights.empty());
  SES_CHECK(options.min_gap >= 1 && options.max_gap >= options.min_gap);
  Random random(options.seed);

  double total_weight = 0;
  for (const auto& [type, weight] : options.type_weights) {
    total_weight += weight;
  }

  auto pick_type = [&]() -> const std::string& {
    double target = random.UniformDouble() * total_weight;
    for (const auto& [type, weight] : options.type_weights) {
      target -= weight;
      if (target <= 0) return type;
    }
    return options.type_weights.back().first;
  };

  SES_CHECK(options.key_skew >= 0);
  std::optional<ZipfDistribution> zipf;
  if (options.key_skew > 0) {
    zipf.emplace(options.num_partitions, options.key_skew);
  }

  EventRelation relation(ChemotherapySchema());
  Timestamp now = 0;
  for (int64_t i = 0; i < options.num_events; ++i) {
    now += random.UniformInt(options.min_gap, options.max_gap);
    int64_t id = zipf ? zipf->Sample(random)
                      : random.UniformInt(1, options.num_partitions);
    const std::string& type = pick_type();
    double value = static_cast<double>(
        random.Uniform(static_cast<uint64_t>(options.value_range)));
    relation.AppendUnchecked(
        now, {Value(id), Value(type), Value(value), Value(std::string("u"))});
  }
  return relation;
}

}  // namespace ses::workload
