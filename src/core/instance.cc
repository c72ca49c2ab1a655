#include "core/instance.h"

#include <algorithm>

namespace ses {

MatchBuffer MatchBuffer::Extend(VariableId variable, Event event) const {
  MatchBuffer extended;
  extended.min_timestamp_ = empty() ? event.timestamp() : min_timestamp_;
  extended.head_ =
      std::make_shared<const Node>(Node{head_, variable, std::move(event)});
  extended.size_ = size_ + 1;
  return extended;
}

std::vector<Binding> MatchBuffer::ToBindings() const {
  std::vector<Binding> bindings;
  bindings.reserve(static_cast<size_t>(size_));
  ForEach([&bindings](VariableId v, const Event& e) {
    bindings.push_back(Binding{v, e});
  });
  std::reverse(bindings.begin(), bindings.end());
  return bindings;
}

}  // namespace ses
