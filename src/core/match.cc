#include "core/match.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/checkpoint.h"

namespace ses {

Match::Match(std::vector<Binding> bindings) : bindings_(std::move(bindings)) {
  SES_CHECK(!bindings_.empty()) << "a match needs at least one binding";
  start_ = bindings_.front().event.timestamp();
  end_ = bindings_.back().event.timestamp();
  for (const Binding& b : bindings_) {
    start_ = std::min(start_, b.event.timestamp());
    end_ = std::max(end_, b.event.timestamp());
  }
}

std::vector<Event> Match::EventsFor(VariableId variable) const {
  std::vector<Event> out;
  for (const Binding& b : bindings_) {
    if (b.variable == variable) out.push_back(b.event);
  }
  return out;
}

std::vector<EventId> Match::event_ids() const {
  std::vector<EventId> out;
  out.reserve(bindings_.size());
  for (const Binding& b : bindings_) out.push_back(b.event.id());
  return out;
}

std::vector<std::pair<VariableId, EventId>> Match::SubstitutionKey() const {
  std::vector<std::pair<VariableId, EventId>> key;
  key.reserve(bindings_.size());
  for (const Binding& b : bindings_) {
    key.emplace_back(b.variable, b.event.id());
  }
  std::sort(key.begin(), key.end());
  return key;
}

std::string Match::ToString(const Pattern& pattern) const {
  std::string out = "{";
  for (size_t i = 0; i < bindings_.size(); ++i) {
    if (i > 0) out += ", ";
    out += pattern.variable(bindings_[i].variable).ToString();
    out += "/e";
    out += std::to_string(bindings_[i].event.id());
  }
  out += "}";
  return out;
}

bool MatchOrderLess(const Match& a, const Match& b) {
  if (a.start_time() != b.start_time()) {
    return a.start_time() < b.start_time();
  }
  if (a.end_time() != b.end_time()) return a.end_time() < b.end_time();
  return a.SubstitutionKey() < b.SubstitutionKey();
}

void SortMatches(std::vector<Match>* matches) {
  // The substitution key allocates, so computing it inside the comparator
  // costs O(n log n) allocations — painful when merging the match buffers
  // of many shards. Precompute one key per match and sort a permutation.
  struct Entry {
    Timestamp start;
    Timestamp end;
    std::vector<std::pair<VariableId, EventId>> key;
    size_t index;
  };
  std::vector<Entry> entries;
  entries.reserve(matches->size());
  for (size_t i = 0; i < matches->size(); ++i) {
    const Match& m = (*matches)[i];
    entries.push_back(Entry{m.start_time(), m.end_time(),
                            m.SubstitutionKey(), i});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.end != b.end) return a.end < b.end;
              return a.key < b.key;
            });
  std::vector<Match> sorted;
  sorted.reserve(matches->size());
  for (const Entry& entry : entries) {
    sorted.push_back(std::move((*matches)[entry.index]));
  }
  *matches = std::move(sorted);
}

void CheckpointMatch(const Match& match, const Schema& schema,
                     std::string* out) {
  storage::PutCount(out, match.bindings().size());
  for (const Binding& binding : match.bindings()) {
    storage::PutSigned(out, binding.variable);
    storage::PutEventRecord(out, binding.event, schema);
  }
}

Status RestoreMatch(const char** p, const char* limit, const Schema& schema,
                    Match* match) {
  uint64_t num_bindings = 0;
  SES_RETURN_IF_ERROR(storage::GetItemCount(p, limit, &num_bindings));
  if (num_bindings == 0) {
    return Status::Corruption("checkpoint match has no bindings");
  }
  std::vector<Binding> bindings;
  bindings.reserve(num_bindings);
  for (uint64_t i = 0; i < num_bindings; ++i) {
    int64_t variable = 0;
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &variable));
    Event event;
    SES_RETURN_IF_ERROR(storage::GetEventRecord(p, limit, schema, &event));
    bindings.push_back(Binding{static_cast<VariableId>(variable),
                               std::move(event)});
  }
  *match = Match(std::move(bindings));
  return Status::OK();
}

bool SameMatchSet(const std::vector<Match>& a, const std::vector<Match>& b) {
  if (a.size() != b.size()) return false;
  std::vector<std::vector<std::pair<VariableId, EventId>>> ka, kb;
  ka.reserve(a.size());
  kb.reserve(b.size());
  for (const Match& m : a) ka.push_back(m.SubstitutionKey());
  for (const Match& m : b) kb.push_back(m.SubstitutionKey());
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

}  // namespace ses
