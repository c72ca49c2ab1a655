#include "catalog/shared_index.h"

#include <algorithm>
#include <bit>
#include <tuple>
#include <utility>

#include "core/filter.h"

namespace ses::catalog {

SharedIndex::SharedIndex(const CatalogSnapshot& snapshot)
    : num_plans_(static_cast<int>(snapshot.size())) {
  const std::vector<CatalogEntry>& entries = snapshot.entries();
  all_plans_.resize(num_plans_);
  for (int pos = 0; pos < num_plans_; ++pos) all_plans_[pos] = pos;

  // Route on the attribute most plans have a complete alphabet on.
  if (!snapshot.empty()) {
    const Schema& schema = entries.front().plan->pattern().schema();
    int best_count = 0;
    for (int a = 0; a < schema.num_attributes(); ++a) {
      int count = 0;
      for (const CatalogEntry& entry : entries) {
        if (entry.plan->EqualityAlphabet(a).has_value()) ++count;
      }
      if (count > best_count) {
        best_count = count;
        type_attribute_ = a;
      }
    }
  }

  // Invert the per-plan alphabets. Positions are appended in ascending
  // order, so every per-type list (and the universal list) is sorted.
  for (int pos = 0; pos < num_plans_; ++pos) {
    std::optional<std::vector<Value>> alphabet;
    if (type_attribute_ >= 0) {
      alphabet = entries[pos].plan->EqualityAlphabet(type_attribute_);
    }
    if (!alphabet.has_value()) {
      universal_plans_.push_back(pos);
      continue;
    }
    for (Value& value : *alphabet) {
      typed_plans_[std::move(value)].push_back(pos);
    }
  }

  // Deduplicate the active pre-filters into the shared condition table.
  masks_.resize(num_plans_);
  std::map<ConstantConditionKey, int> table;
  std::vector<std::vector<int>> plan_bits(num_plans_);
  for (int pos = 0; pos < num_plans_; ++pos) {
    const auto& prefilter = entries[pos].plan->shared_prefilter();
    if (prefilter == nullptr || !prefilter->active()) continue;
    for (const Condition& condition : prefilter->constant_conditions()) {
      ++num_plan_conditions_;
      auto [it, inserted] =
          table.emplace(ConstantConditionKey::Of(condition),
                        static_cast<int>(conditions_.size()));
      if (inserted) conditions_.push_back(condition);
      plan_bits[pos].push_back(it->second);
    }
  }
  const size_t words = (conditions_.size() + 63) / 64;
  bitmap_.resize(words);
  for (int pos = 0; pos < num_plans_; ++pos) {
    if (plan_bits[pos].empty()) continue;
    masks_[pos].assign(words, 0);
    for (int bit : plan_bits[pos]) {
      masks_[pos][bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
}

void SharedIndex::BeginEvent(const Event& event) {
  (void)event;
  bitmap_valid_ = false;
}

const std::vector<int>& SharedIndex::InterestedPlans(const Event& event) {
  if (type_attribute_ < 0) return all_plans_;
  static const std::vector<int> kEmpty;
  const std::vector<int>* typed = &kEmpty;
  auto it = typed_plans_.find(event.value(type_attribute_));
  if (it != typed_plans_.end()) typed = &it->second;
  if (universal_plans_.empty()) return *typed;
  interested_.clear();
  interested_.reserve(typed->size() + universal_plans_.size());
  std::merge(typed->begin(), typed->end(), universal_plans_.begin(),
             universal_plans_.end(), std::back_inserter(interested_));
  return interested_;
}

bool SharedIndex::PassesPrefilter(int pos, const Event& event) {
  const std::vector<uint64_t>& mask = masks_[pos];
  if (mask.empty()) return true;
  if (!bitmap_valid_) EvaluateBitmap(event);
  for (size_t word = 0; word < mask.size(); ++word) {
    if ((mask[word] & bitmap_[word]) != 0) return true;
  }
  return false;
}

void SharedIndex::EvaluateBitmap(const Event& event) {
  std::fill(bitmap_.begin(), bitmap_.end(), 0);
  for (size_t i = 0; i < conditions_.size(); ++i) {
    if (conditions_[i].EvaluateConstant(event)) {
      bitmap_[i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  bitmap_valid_ = true;
}

void SharedIndex::BeginBatch(const ColumnarBatch& batch) {
  bitmap_valid_ = false;
  const size_t row_words = (batch.size() + 63) / 64;

  // Every deduplicated condition once, per column.
  condition_rows_.resize(conditions_.size());
  for (size_t i = 0; i < conditions_.size(); ++i) {
    condition_rows_[i].assign(row_words, 0);
    EvaluateConstantColumnar(conditions_[i], batch,
                             condition_rows_[i].data());
  }

  // Fold each plan's condition mask into one row bitmap: row r passes plan
  // pos iff some condition in the plan's mask holds at r — exactly the
  // mask-AND-bitmap test of PassesPrefilter, transposed to rows.
  plan_pass_.resize(masks_.size());
  for (size_t pos = 0; pos < masks_.size(); ++pos) {
    const std::vector<uint64_t>& mask = masks_[pos];
    if (mask.empty()) {
      plan_pass_[pos].clear();
      continue;
    }
    plan_pass_[pos].assign(row_words, 0);
    for (size_t word = 0; word < mask.size(); ++word) {
      uint64_t bits = mask[word];
      while (bits != 0) {
        const size_t condition =
            word * 64 + static_cast<size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::vector<uint64_t>& rows = condition_rows_[condition];
        for (size_t w = 0; w < row_words; ++w) {
          plan_pass_[pos][w] |= rows[w];
        }
      }
    }
  }

  // STRING routing attribute: one typed-plans lookup per dictionary code.
  code_plans_.clear();
  if (type_attribute_ >= 0 &&
      batch.schema().attribute(type_attribute_).type == ValueType::kString) {
    const ColumnarBatch::StringColumn& column =
        batch.string_column(type_attribute_);
    code_plans_.reserve(column.dict.size());
    for (const std::string& value : column.dict) {
      auto it = typed_plans_.find(Value(value));
      code_plans_.push_back(it != typed_plans_.end() ? &it->second : nullptr);
    }
  }
}

const std::vector<int>& SharedIndex::InterestedPlansRow(
    const ColumnarBatch& batch, size_t row) {
  if (type_attribute_ < 0) return all_plans_;
  static const std::vector<int> kEmpty;
  const std::vector<int>* typed = &kEmpty;
  if (batch.schema().attribute(type_attribute_).type == ValueType::kString) {
    const std::vector<int>* resolved =
        code_plans_[batch.string_column(type_attribute_).codes[row]];
    if (resolved != nullptr) typed = resolved;
  } else {
    auto it = typed_plans_.find(
        Value(batch.int64_column(type_attribute_)[row]));
    if (it != typed_plans_.end()) typed = &it->second;
  }
  if (universal_plans_.empty()) return *typed;
  interested_.clear();
  interested_.reserve(typed->size() + universal_plans_.size());
  std::merge(typed->begin(), typed->end(), universal_plans_.begin(),
             universal_plans_.end(), std::back_inserter(interested_));
  return interested_;
}

bool SharedIndex::PassesPrefilterRow(int pos, size_t row) const {
  const std::vector<uint64_t>& pass = plan_pass_[pos];
  if (pass.empty()) return true;
  return ((pass[row >> 6] >> (row & 63)) & 1) != 0;
}

}  // namespace ses::catalog
