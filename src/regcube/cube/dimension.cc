#include "regcube/cube/dimension.h"

#include <algorithm>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/cube/cell.h"

namespace regcube {

std::string ConceptHierarchy::Label(int level, ValueId value) const {
  return StrPrintf("L%d:%u", level, value);
}

ValueId ConceptHierarchy::Ancestor(int from_level, ValueId value,
                                   int to_level) const {
  RC_CHECK(to_level >= 1 && to_level <= from_level)
      << "ancestor from level " << from_level << " to " << to_level;
  ValueId v = value;
  for (int l = from_level; l > to_level; --l) v = Parent(l, v);
  return v;
}

FanoutHierarchy::FanoutHierarchy(int num_levels, int fanout)
    : num_levels_(num_levels), fanout_(fanout) {
  RC_CHECK_GE(num_levels, 1);
  RC_CHECK_GE(fanout, 1);
  std::int64_t card = 1;
  cardinality_.reserve(static_cast<size_t>(num_levels));
  for (int l = 1; l <= num_levels; ++l) {
    card *= fanout;
    cardinality_.push_back(card);
  }
}

std::int64_t FanoutHierarchy::Cardinality(int level) const {
  RC_CHECK(level >= 1 && level <= num_levels_);
  return cardinality_[static_cast<size_t>(level - 1)];
}

ValueId FanoutHierarchy::Parent(int level, ValueId value) const {
  RC_CHECK(level >= 2 && level <= num_levels_);
  return value / static_cast<ValueId>(fanout_);
}

std::vector<ValueId> FanoutHierarchy::Children(int level,
                                               ValueId value) const {
  RC_CHECK(level >= 1 && level <= num_levels_);
  if (level == num_levels_) return {};
  const std::uint64_t begin =
      static_cast<std::uint64_t>(value) * static_cast<std::uint64_t>(fanout_);
  const std::uint64_t end =
      std::min<std::uint64_t>(begin + static_cast<std::uint64_t>(fanout_),
                              kStarValue);
  std::vector<ValueId> out;
  if (begin >= end) return out;
  out.reserve(static_cast<size_t>(end - begin));
  for (std::uint64_t c = begin; c < end; ++c) {
    out.push_back(static_cast<ValueId>(c));
  }
  return out;
}

Result<ExplicitHierarchy> ExplicitHierarchy::Create(
    std::int64_t level1_cardinality, std::vector<std::vector<ValueId>> parents,
    std::vector<std::vector<std::string>> labels) {
  if (level1_cardinality < 1) {
    return Status::InvalidArgument("level 1 must have at least one value");
  }
  for (size_t k = 0; k < parents.size(); ++k) {
    std::int64_t parent_card = (k == 0)
                                   ? level1_cardinality
                                   : static_cast<std::int64_t>(
                                         parents[k - 1].size());
    if (parents[k].empty()) {
      return Status::InvalidArgument(
          StrPrintf("level %zu has no values", k + 2));
    }
    for (ValueId p : parents[k]) {
      if (p >= parent_card) {
        return Status::InvalidArgument(
            StrPrintf("level %zu has parent id %u out of range [0,%lld)",
                      k + 2, p, static_cast<long long>(parent_card)));
      }
    }
  }
  if (!labels.empty() && labels.size() != parents.size() + 1) {
    return Status::InvalidArgument(
        "labels must cover every level or be omitted");
  }
  ExplicitHierarchy h;
  h.level1_cardinality_ = level1_cardinality;
  h.parents_ = std::move(parents);
  h.labels_ = std::move(labels);
  // Invert each parent table by counting sort: children visited in id
  // order land in each parent's list ascending.
  for (size_t k = 0; k < h.parents_.size(); ++k) {
    const auto& table = h.parents_[k];
    std::vector<std::uint32_t> begin(
        static_cast<size_t>(h.Cardinality(static_cast<int>(k) + 1)) + 1, 0);
    for (ValueId p : table) ++begin[static_cast<size_t>(p) + 1];
    for (size_t v = 1; v < begin.size(); ++v) begin[v] += begin[v - 1];
    std::vector<ValueId> ids(table.size());
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    for (size_t c = 0; c < table.size(); ++c) {
      ids[next[table[c]]++] = static_cast<ValueId>(c);
    }
    h.child_begin_.push_back(std::move(begin));
    h.child_ids_.push_back(std::move(ids));
  }
  return h;
}

int ExplicitHierarchy::num_levels() const {
  return static_cast<int>(parents_.size()) + 1;
}

std::int64_t ExplicitHierarchy::Cardinality(int level) const {
  RC_CHECK(level >= 1 && level <= num_levels());
  if (level == 1) return level1_cardinality_;
  return static_cast<std::int64_t>(parents_[static_cast<size_t>(level - 2)]
                                       .size());
}

ValueId ExplicitHierarchy::Parent(int level, ValueId value) const {
  RC_CHECK(level >= 2 && level <= num_levels());
  const auto& table = parents_[static_cast<size_t>(level - 2)];
  RC_CHECK_LT(value, table.size());
  return table[value];
}

std::vector<ValueId> ExplicitHierarchy::Children(int level,
                                                 ValueId value) const {
  RC_CHECK(level >= 1 && level <= num_levels());
  if (level == num_levels()) return {};
  const auto& begin = child_begin_[static_cast<size_t>(level - 1)];
  if (value >= begin.size() - 1) return {};
  const auto& ids = child_ids_[static_cast<size_t>(level - 1)];
  return std::vector<ValueId>(ids.begin() + begin[value],
                              ids.begin() + begin[value + 1]);
}

std::string ExplicitHierarchy::Label(int level, ValueId value) const {
  if (!labels_.empty()) {
    const auto& names = labels_[static_cast<size_t>(level - 1)];
    if (value < names.size() && !names[value].empty()) return names[value];
  }
  return ConceptHierarchy::Label(level, value);
}

Dimension::Dimension(std::string name,
                     std::shared_ptr<const ConceptHierarchy> hierarchy,
                     std::vector<std::string> level_names)
    : name_(std::move(name)), hierarchy_(std::move(hierarchy)) {
  RC_CHECK(hierarchy_ != nullptr);
  RC_CHECK_EQ(level_names.size(),
              static_cast<size_t>(hierarchy_->num_levels()));
  level_names_.push_back("*");
  for (auto& n : level_names) level_names_.push_back(std::move(n));
}

Dimension::Dimension(std::string name,
                     std::shared_ptr<const ConceptHierarchy> hierarchy)
    : name_(std::move(name)), hierarchy_(std::move(hierarchy)) {
  RC_CHECK(hierarchy_ != nullptr);
  level_names_.push_back("*");
  for (int l = 1; l <= hierarchy_->num_levels(); ++l) {
    level_names_.push_back(StrPrintf("%s.L%d", name_.c_str(), l));
  }
}

const std::string& Dimension::level_name(int level) const {
  RC_CHECK(level >= 0 && level <= num_levels());
  return level_names_[static_cast<size_t>(level)];
}

}  // namespace regcube
