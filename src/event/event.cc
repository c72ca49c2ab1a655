#include "event/event.h"

#include "common/strings.h"

namespace ses {

Event Event::Shared() const& {
  Event shared(id_, timestamp_, {});
  shared.shared_ = shared_ != nullptr
                       ? shared_
                       : std::make_shared<const std::vector<Value>>(owned_);
  return shared;
}

Event Event::Shared() && {
  Event shared(id_, timestamp_, {});
  shared.shared_ =
      shared_ != nullptr
          ? std::move(shared_)
          : std::make_shared<const std::vector<Value>>(std::move(owned_));
  return shared;
}

std::string Event::ToString() const {
  std::string out =
      strings::Format("e%lld@%s{", static_cast<long long>(id_),
                      FormatTimestamp(timestamp_).c_str());
  for (int i = 0; i < num_values(); ++i) {
    if (i > 0) out += ", ";
    out += value(i).ToString();
  }
  out += "}";
  return out;
}

}  // namespace ses
