#ifndef SES_PLAN_COMPILED_PLAN_H_
#define SES_PLAN_COMPILED_PLAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/automaton.h"
#include "core/filter.h"
#include "core/matcher.h"

namespace ses::plan {

/// Compile-time choices, fixed when the plan is built.
struct PlanOptions {
  /// Enables the §4.5 event pre-filter. The filter is built (and its
  /// constant-condition scan run) once per plan, and each engine's stream
  /// stage applies it once per event. When disabled, no filter is built
  /// and engines process every event.
  bool enable_prefilter = true;
};

/// The immutable artifact of pattern compilation, shared by every engine
/// (see engine/engine.h) evaluating the same pattern: the §4 powerset
/// automaton, the §4.5 event pre-filter, and the detected partition
/// attribute. The exponential automaton construction and the
/// FindPartitionAttribute equality-graph analysis run exactly once per
/// plan, no matter how many engines, partitions, or shards execute it —
/// compile once, run anywhere.
///
/// A CompiledPlan is deeply immutable after CompilePlan returns, so one
/// shared_ptr<const CompiledPlan> may be handed to any number of engines on
/// any number of threads concurrently.
class CompiledPlan {
 public:
  const Pattern& pattern() const { return automaton_->pattern(); }
  const SesAutomaton& automaton() const { return *automaton_; }
  /// The shared automaton handle, for engines that hold their own
  /// reference (per-partition matchers outliving the plan lookup).
  const std::shared_ptr<const SesAutomaton>& shared_automaton() const {
    return automaton_;
  }
  /// The plan's one §4.5 filter, answering per event and per column
  /// (core/filter.h): every engine's stream stage applies it, and the
  /// catalog's shared index reads its conditions. Null when
  /// options().enable_prefilter is false. May be non-null but inactive
  /// (filter->active() == false) when the pattern has a variable without
  /// constant conditions — every event then passes.
  const std::shared_ptr<const EventPreFilter>& shared_prefilter() const {
    return prefilter_;
  }

  /// True when the pattern admits partition-pure execution (a complete
  /// equality graph on partition_attribute(); see core/partitioned.h).
  bool has_partition_attribute() const { return partition_attribute_ >= 0; }
  /// Schema index of the partition attribute; -1 when none qualifies.
  int partition_attribute() const { return partition_attribute_; }

  Duration window() const { return automaton_->window(); }
  const PlanOptions& options() const { return options_; }

  /// The plan's event-type alphabet on `attribute`: the set of constants C
  /// appearing in equality conditions `v.A = C` on that attribute, provided
  /// EVERY event variable of the pattern carries at least one such
  /// condition. Under that premise an event whose A-value is outside the
  /// alphabet cannot bind any variable of the pattern, so a multi-pattern
  /// evaluator may skip this plan for it without changing the plan's match
  /// set (docs/SEMANTICS.md §10) — the seam the catalog layer's inverted
  /// type index (src/catalog/) is built on.
  ///
  /// Returns nullopt — "this plan is interested in every event" — when some
  /// variable lacks an equality condition on `attribute`, when `attribute`
  /// is out of range, when the attribute is DOUBLE-typed (floating-point
  /// equality is not a routing key), or when one of the equality constants
  /// has another type than the attribute (`K = 1.0` on an INT attribute).
  /// So every value has the attribute's declared type; the values are
  /// deduplicated and ordered (Compare), so equal alphabets compare equal.
  /// Computed on demand from the pattern; call at registration time, not
  /// per event.
  std::optional<std::vector<Value>> EqualityAlphabet(int attribute) const;

  /// The options of a core::Matcher that evaluates this plan with its own
  /// filter, derived from the plan options. The engines and the catalog do
  /// not use them: they filter in their stream stage and run their
  /// evaluators with the filter off.
  MatcherOptions matcher_options() const {
    MatcherOptions options;
    options.enable_prefilter = options_.enable_prefilter;
    return options;
  }

 private:
  friend Result<std::shared_ptr<const CompiledPlan>> CompilePlan(
      const Pattern& pattern, PlanOptions options);

  CompiledPlan(std::shared_ptr<const SesAutomaton> automaton,
               std::shared_ptr<const EventPreFilter> prefilter,
               int partition_attribute, PlanOptions options)
      : automaton_(std::move(automaton)),
        prefilter_(std::move(prefilter)),
        partition_attribute_(partition_attribute),
        options_(options) {}

  std::shared_ptr<const SesAutomaton> automaton_;
  std::shared_ptr<const EventPreFilter> prefilter_;
  int partition_attribute_;
  PlanOptions options_;
};

/// Compiles `pattern` once into a shareable plan: runs the powerset
/// construction, builds the pre-filter (when enabled), and detects the
/// partition attribute with FindPartitionAttribute. A pattern without one
/// still compiles: the plan reports has_partition_attribute() == false and
/// partition-pure engines refuse to build from it.
Result<std::shared_ptr<const CompiledPlan>> CompilePlan(
    const Pattern& pattern, PlanOptions options = {});

}  // namespace ses::plan

#endif  // SES_PLAN_COMPILED_PLAN_H_
