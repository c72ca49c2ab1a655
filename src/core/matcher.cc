#include "core/matcher.h"

#include "common/strings.h"
#include "core/automaton_builder.h"

namespace ses {

std::shared_ptr<const SesAutomaton> CompileAutomaton(const Pattern& pattern) {
  return std::make_shared<const SesAutomaton>(
      AutomatonBuilder::Build(pattern));
}

Matcher::Matcher(const Pattern& pattern, MatcherOptions options)
    : Matcher(CompileAutomaton(pattern), options) {}

Matcher::Matcher(std::shared_ptr<const SesAutomaton> automaton,
                 MatcherOptions options)
    : Matcher(std::move(automaton), options, nullptr) {}

Matcher::Matcher(std::shared_ptr<const SesAutomaton> automaton,
                 MatcherOptions options,
                 std::shared_ptr<const EventPreFilter> filter)
    : automaton_(std::move(automaton)),
      executor_(std::make_unique<SesExecutor>(automaton_.get(), options,
                                              std::move(filter))) {}

Status Matcher::Push(const Event& event, std::vector<Match>* out) {
  if (has_watermark_ && event.timestamp() <= watermark_) {
    return Status::FailedPrecondition(strings::Format(
        "events must have strictly increasing timestamps "
        "(got %lld after %lld); the matching semantics assume the temporal "
        "attribute defines a total order",
        static_cast<long long>(event.timestamp()),
        static_cast<long long>(watermark_)));
  }
  has_watermark_ = true;
  watermark_ = event.timestamp();
  executor_->Consume(event, out);
  return Status::OK();
}

void Matcher::Flush(std::vector<Match>* out) { executor_->Flush(out); }

void Matcher::Reset() {
  executor_->Reset();
  has_watermark_ = false;
  watermark_ = 0;
}

Result<std::vector<Match>> MatchRelation(const Pattern& pattern,
                                         const EventRelation& relation,
                                         MatcherOptions options,
                                         ExecutorStats* stats) {
  SES_RETURN_IF_ERROR(relation.ValidateTotalOrder());
  Matcher matcher(pattern, options);
  std::vector<Match> matches;
  for (const Event& event : relation) {
    SES_RETURN_IF_ERROR(matcher.Push(event, &matches));
  }
  matcher.Flush(&matches);
  if (stats != nullptr) *stats = matcher.stats();
  return matches;
}

}  // namespace ses
