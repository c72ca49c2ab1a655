#ifndef SES_CORE_MATCHER_H_
#define SES_CORE_MATCHER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/automaton.h"
#include "core/executor.h"
#include "core/match.h"
#include "event/relation.h"
#include "query/pattern.h"

namespace ses {

/// The public entry point of libses: matches a SES pattern against a stream
/// or relation of events.
///
/// Streaming use:
///
///   SES_ASSIGN_OR_RETURN(Pattern p, ParsePattern(query, schema));
///   Matcher matcher(p, MatcherOptions{});
///   std::vector<Match> matches;
///   for (const Event& e : incoming) {
///     SES_RETURN_IF_ERROR(matcher.Push(e, &matches));
///   }
///   matcher.Flush(&matches);  // report matches still pending at stream end
///
/// Matches are appended to the output vector as soon as their window
/// expires (or at Flush). Events must arrive in strictly increasing
/// timestamp order (the paper assumes T defines a total order, §3.1);
/// Push returns FailedPrecondition otherwise.
/// Compiles `pattern` into an immutable, shareable automaton. The powerset
/// construction is exponential in the largest event-set size, so callers
/// that run many matchers over the same pattern (one per partition, one per
/// shard) must compile once and hand the result to every Matcher.
std::shared_ptr<const SesAutomaton> CompileAutomaton(const Pattern& pattern);

class Matcher {
 public:
  explicit Matcher(const Pattern& pattern, MatcherOptions options = {});

  /// Shares a pre-compiled automaton (see CompileAutomaton). The automaton
  /// is immutable after construction, so any number of Matchers — including
  /// matchers on different threads — may hold the same one.
  explicit Matcher(std::shared_ptr<const SesAutomaton> automaton,
                   MatcherOptions options = {});

  /// Additionally shares a pre-built event pre-filter (see
  /// plan::CompiledPlan), so a matcher built from a plan skips re-scanning
  /// the pattern's constant conditions. A null filter behaves like the
  /// two-argument constructor.
  Matcher(std::shared_ptr<const SesAutomaton> automaton,
          MatcherOptions options,
          std::shared_ptr<const EventPreFilter> filter);

  Matcher(Matcher&&) = default;
  Matcher& operator=(Matcher&&) = default;

  /// Offers the next event; completed matches are appended to `out`.
  Status Push(const Event& event, std::vector<Match>* out);

  /// Signals end-of-stream: pending accepting instances emit their matches.
  void Flush(std::vector<Match>* out);

  /// Clears all execution state (instances, statistics, time watermark).
  void Reset();

  const SesAutomaton& automaton() const { return *automaton_; }
  const Pattern& pattern() const { return automaton_->pattern(); }

  /// Installs an execution observer (see core/trace.h); nullptr removes
  /// it. Not owned.
  void set_observer(ExecutionObserver* observer) {
    executor_->set_observer(observer);
  }
  const ExecutorStats& stats() const { return executor_->stats(); }
  size_t num_active_instances() const {
    return executor_->num_active_instances();
  }

 private:
  std::shared_ptr<const SesAutomaton> automaton_;
  std::unique_ptr<SesExecutor> executor_;
  bool has_watermark_ = false;
  Timestamp watermark_ = 0;
};

/// Convenience batch API: matches `pattern` against all events of
/// `relation` (which must satisfy ValidateTotalOrder) and returns the
/// matching substitutions. Per-run statistics are stored in `stats` when
/// non-null.
Result<std::vector<Match>> MatchRelation(const Pattern& pattern,
                                         const EventRelation& relation,
                                         MatcherOptions options = {},
                                         ExecutorStats* stats = nullptr);

}  // namespace ses

#endif  // SES_CORE_MATCHER_H_
