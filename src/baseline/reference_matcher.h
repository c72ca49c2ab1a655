#ifndef SES_BASELINE_REFERENCE_MATCHER_H_
#define SES_BASELINE_REFERENCE_MATCHER_H_

#include <vector>

#include "common/result.h"
#include "core/match.h"
#include "event/relation.h"
#include "query/pattern.h"

namespace ses::baseline {

/// A deliberately naive, clean-room implementation of the SES matching
/// semantics used as an oracle in property tests. It shares no code with
/// the automaton: partial substitutions are explicit binding lists, the
/// set-progression and condition rules are re-derived from the pattern at
/// every event, and no pre-filter or transition tables exist. Exponential
/// in the worst case — use on small inputs only.
///
/// Semantics implemented (identical to the automaton's, §4.3):
///  * events are consumed in time order; each event starts one fresh
///    (empty) partial substitution;
///  * a partial that can be extended by the current event in k >= 1 ways
///    branches into those k extensions and is itself discarded
///    (skip-till-next-match / greedy maximality);
///  * a partial that cannot be extended ignores the event, except a fresh
///    empty partial, which dies;
///  * a partial whose window would be exceeded by the current event
///    expires; expired or end-of-stream partials that bind every variable
///    report their substitution as a match.
Result<std::vector<Match>> ReferenceMatch(const Pattern& pattern,
                                          const EventRelation& relation);

/// Verifies conditions (1)-(3) of Definition 2 plus the structural rules of
/// a substitution on `match`: every condition instantiation holds under the
/// decomposition semantics, events of set Vi precede events of Vi+1, all
/// events lie within the window τ, singleton variables bind exactly one
/// event, group variables at least one, and all events are distinct.
/// Returns the first violation found.
Status CheckMatchInvariants(const Pattern& pattern, const Match& match);

}  // namespace ses::baseline

#endif  // SES_BASELINE_REFERENCE_MATCHER_H_
