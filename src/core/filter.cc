#include "core/filter.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

namespace ses {

EventPreFilter::EventPreFilter(const Pattern& pattern) {
  std::vector<bool> constrained(pattern.num_variables(), false);
  for (const Condition& c : pattern.conditions()) {
    if (!c.is_constant_condition()) continue;
    constant_conditions_.push_back(c);
    constrained[c.lhs().variable] = true;
  }
  active_ = true;
  for (bool has_constant : constrained) {
    if (!has_constant) {
      active_ = false;
      break;
    }
  }
  // The per-column plan: each distinct test once, partitioned by
  // evaluation strategy. Conditions on one STRING attribute share a
  // dictionary, so their per-code verdicts fold together and the code
  // column is walked once per attribute.
  const Schema& schema = pattern.schema();
  std::set<ConstantConditionKey> seen;
  std::map<int, std::vector<int>> by_string_attribute;
  for (int i = 0; i < static_cast<int>(constant_conditions_.size()); ++i) {
    const Condition& condition = constant_conditions_[i];
    if (!seen.insert(ConstantConditionKey::Of(condition)).second) continue;
    if (!condition.lhs().is_timestamp() &&
        schema.attribute(condition.lhs().attribute).type ==
            ValueType::kString) {
      by_string_attribute[condition.lhs().attribute].push_back(i);
    } else {
      flat_conditions_.push_back(i);
    }
  }
  string_groups_.assign(by_string_attribute.begin(),
                        by_string_attribute.end());
}

bool EventPreFilter::ShouldProcess(const Event& event) const {
  if (!active_) return true;
  for (const Condition& c : constant_conditions_) {
    if (c.EvaluateConstant(event)) return true;
  }
  return false;
}

namespace {

int TypeRank(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return 0;
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

/// Runs the per-op predicate over a flat column, OR-ing result bits into
/// `words`. The op switch is hoisted out of the loop so each case is one
/// branch-free comparison loop over contiguous data; CompareTyped is
/// inline, and the constant's type test is loop-invariant, so the
/// compiler's vectorizer sees a plain compare-and-pack kernel.
template <typename T>
void FillConditionBitmap(const T* data, size_t n, ComparisonOp op,
                         const Value& constant, uint64_t* words) {
  auto emit = [&](auto holds) {
    for (size_t i = 0; i < n; ++i) {
      words[i >> 6] |= uint64_t{holds(data[i]) ? 1u : 0u} << (i & 63);
    }
  };
  switch (op) {
    case ComparisonOp::kEq:
      emit([&](T x) { return CompareTyped(x, constant) == 0; });
      break;
    case ComparisonOp::kNe:
      emit([&](T x) { return CompareTyped(x, constant) != 0; });
      break;
    case ComparisonOp::kLt:
      emit([&](T x) { return CompareTyped(x, constant) < 0; });
      break;
    case ComparisonOp::kLe:
      emit([&](T x) { return CompareTyped(x, constant) <= 0; });
      break;
    case ComparisonOp::kGt:
      emit([&](T x) { return CompareTyped(x, constant) > 0; });
      break;
    case ComparisonOp::kGe:
      emit([&](T x) { return CompareTyped(x, constant) >= 0; });
      break;
  }
}

}  // namespace

ConstantConditionKey ConstantConditionKey::Of(const Condition& condition) {
  return ConstantConditionKey{condition.lhs().attribute,
                              static_cast<int>(condition.op()),
                              condition.constant()};
}

bool ConstantConditionKey::operator<(const ConstantConditionKey& other) const {
  if (attribute != other.attribute) return attribute < other.attribute;
  if (op != other.op) return op < other.op;
  const int rank = TypeRank(value);
  const int other_rank = TypeRank(other.value);
  if (rank != other_rank) return rank < other_rank;
  return Compare(value, other.value) < 0;
}

void EvaluateConstantColumnar(const Condition& condition,
                              const ColumnarBatch& batch, uint64_t* words) {
  const size_t n = batch.size();
  if (n == 0) return;
  const ComparisonOp op = condition.op();
  const Value& constant = condition.constant();
  const int attribute = condition.lhs().attribute;
  if (condition.lhs().is_timestamp()) {
    FillConditionBitmap(batch.timestamps().data(), n, op, constant, words);
    return;
  }
  switch (batch.schema().attribute(attribute).type) {
    case ValueType::kInt64:
      FillConditionBitmap(batch.int64_column(attribute).data(), n, op,
                          constant, words);
      return;
    case ValueType::kDouble:
      FillConditionBitmap(batch.double_column(attribute).data(), n, op,
                          constant, words);
      return;
    case ValueType::kString: {
      // Evaluate once per distinct value, then map the code column — a
      // batch touches each dictionary entry at most once regardless of how
      // many rows share it.
      const ColumnarBatch::StringColumn& column =
          batch.string_column(attribute);
      std::vector<char> verdict(column.dict.size());
      for (size_t code = 0; code < column.dict.size(); ++code) {
        verdict[code] = ApplyComparison(
            op, CompareTyped(std::string_view(column.dict[code]), constant));
      }
      const int32_t* codes = column.codes.data();
      for (size_t i = 0; i < n; ++i) {
        words[i >> 6] |= uint64_t{verdict[codes[i]] ? 1u : 0u} << (i & 63);
      }
      return;
    }
  }
}

void EventPreFilter::ShouldProcessColumnar(
    const ColumnarBatch& batch, std::vector<uint64_t>* pass) const {
  const size_t n = batch.size();
  const size_t words = (n + 63) / 64;
  pass->assign(words, 0);
  if (!active_) {
    // Inactive filter passes everything: all row bits set, tail zero.
    if (words > 0) {
      std::fill(pass->begin(), pass->end(), ~uint64_t{0});
      const size_t tail = n & 63;
      if (tail != 0) pass->back() = (uint64_t{1} << tail) - 1;
    }
    return;
  }
  for (int index : flat_conditions_) {
    EvaluateConstantColumnar(constant_conditions_[index], batch,
                             pass->data());
  }
  std::vector<char> verdict;
  for (const auto& [attribute, members] : string_groups_) {
    const ColumnarBatch::StringColumn& column =
        batch.string_column(attribute);
    verdict.assign(column.dict.size(), 0);
    for (int index : members) {
      const Condition& condition = constant_conditions_[index];
      for (size_t code = 0; code < column.dict.size(); ++code) {
        verdict[code] |= ApplyComparison(
            condition.op(), CompareTyped(std::string_view(column.dict[code]),
                                         condition.constant()));
      }
    }
    const int32_t* codes = column.codes.data();
    uint64_t* words = pass->data();
    for (size_t i = 0; i < n; ++i) {
      words[i >> 6] |= uint64_t{verdict[codes[i]] ? 1u : 0u} << (i & 63);
    }
  }
}

}  // namespace ses
