#ifndef REGCUBE_CUBE_DIMENSION_H_
#define REGCUBE_CUBE_DIMENSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "regcube/common/status.h"

namespace regcube {

/// Identifier of a dimension value at a particular hierarchy level. Values
/// at each level are dense integers [0, cardinality).
using ValueId = std::uint32_t;

/// Concept hierarchy of one standard dimension (§2.1). Levels are numbered
/// from the top: level 0 is "*" (all, a single conceptual value, never
/// materialized), level 1 the most general stored level, and deeper levels
/// are more specific. Every value at level l+1 has exactly one parent at
/// level l.
///
/// The hierarchy can be walked both ways: `Parent` rolls a value up one
/// level, `Children` lists the values one level down whose parent it is
/// (their count is the list's size). A drill step probes exactly those
/// children instead of scanning a whole cuboid.
class ConceptHierarchy {
 public:
  virtual ~ConceptHierarchy() = default;

  /// Deepest level (>= 1). Levels are 1..num_levels().
  virtual int num_levels() const = 0;

  /// Number of distinct values at `level` (1 <= level <= num_levels()).
  virtual std::int64_t Cardinality(int level) const = 0;

  /// Parent (at level-1) of `value` (at `level`). Pre: level >= 2
  /// (checked). A value beyond Cardinality(level) (a key mapper's wide
  /// value) is the implementation's call: FanoutHierarchy rolls it up
  /// arithmetically, ExplicitHierarchy rejects it (checked).
  virtual ValueId Parent(int level, ValueId value) const = 0;

  /// Children (at level+1) of `value` (at `level`): every value whose
  /// Parent is `value`, ascending. Empty at the deepest level and for a
  /// value with no children. Never checks `value` against the level's
  /// cardinality, so a malformed key asks safely. Pre: 1 <= level <=
  /// num_levels() (checked).
  virtual std::vector<ValueId> Children(int level, ValueId value) const = 0;

  /// Display label of a value (defaults to "L<level>:<id>").
  virtual std::string Label(int level, ValueId value) const;

  /// Ancestor of `value` (at `from_level`) at `to_level` <= from_level.
  /// to_level == from_level returns `value` itself. Pre: 1 <= to_level.
  ValueId Ancestor(int from_level, ValueId value, int to_level) const;
};

/// Hierarchy where every value at level l has exactly `fanout` children at
/// level l+1, so Cardinality(l) = fanout^l and Parent(v) = v / fanout.
/// This is the generator's hierarchy shape ("the node fan-out factor
/// (cardinality) is 10, i.e. 10 children per node" — §5) with O(1) ancestor
/// arithmetic. Children(v) = [v*fanout, v*fanout + fanout), computed in 64
/// bits and clipped below kStarValue; that is exact also for values beyond
/// a level's cardinality (a key mapper's), whose Parent is v / fanout too.
class FanoutHierarchy : public ConceptHierarchy {
 public:
  /// Pre: num_levels >= 1, fanout >= 1 (checked).
  FanoutHierarchy(int num_levels, int fanout);

  int num_levels() const override { return num_levels_; }
  std::int64_t Cardinality(int level) const override;
  ValueId Parent(int level, ValueId value) const override;
  std::vector<ValueId> Children(int level, ValueId value) const override;

  int fanout() const { return fanout_; }

 private:
  int num_levels_;
  int fanout_;
  std::vector<std::int64_t> cardinality_;  // cardinality_[l-1] for level l
};

/// Hierarchy backed by explicit parent tables, for real-world dimensions
/// (e.g. street-block -> district -> city). Level l's table maps each value
/// to its parent at level l-1; Create inverts the tables once into child
/// lists (CSR), so Children is a copy of one list.
class ExplicitHierarchy : public ConceptHierarchy {
 public:
  /// `parents[k]` is the parent table of level k+2 (level 1 has no table).
  /// `labels[k]` optionally names values of level k+1 (empty = default).
  /// Validation: every parent id must be a valid value of the level above.
  static Result<ExplicitHierarchy> Create(
      std::int64_t level1_cardinality,
      std::vector<std::vector<ValueId>> parents,
      std::vector<std::vector<std::string>> labels = {});

  int num_levels() const override;
  std::int64_t Cardinality(int level) const override;
  ValueId Parent(int level, ValueId value) const override;
  std::vector<ValueId> Children(int level, ValueId value) const override;
  std::string Label(int level, ValueId value) const override;

 private:
  ExplicitHierarchy() = default;

  std::int64_t level1_cardinality_ = 0;
  std::vector<std::vector<ValueId>> parents_;
  // Per level l (index l-1): the children of value v at level l are
  // child_ids_[l-1][child_begin_[l-1][v] .. child_begin_[l-1][v+1]),
  // ascending. Built in Create from parents_.
  std::vector<std::vector<std::uint32_t>> child_begin_;
  std::vector<std::vector<ValueId>> child_ids_;
  std::vector<std::vector<std::string>> labels_;
};

/// A named standard dimension: a concept hierarchy plus level names
/// (e.g. location: city > district > street-block).
class Dimension {
 public:
  /// `level_names[k]` names level k+1; must have hierarchy->num_levels()
  /// entries (checked).
  Dimension(std::string name, std::shared_ptr<const ConceptHierarchy> hierarchy,
            std::vector<std::string> level_names);

  /// Convenience: auto-names levels "<name>.L1".."<name>.Lk".
  Dimension(std::string name,
            std::shared_ptr<const ConceptHierarchy> hierarchy);

  const std::string& name() const { return name_; }
  const ConceptHierarchy& hierarchy() const { return *hierarchy_; }
  int num_levels() const { return hierarchy_->num_levels(); }

  /// Name of `level`; level 0 returns "*".
  const std::string& level_name(int level) const;

 private:
  std::string name_;
  std::shared_ptr<const ConceptHierarchy> hierarchy_;
  std::vector<std::string> level_names_;  // [0] = "*", [l] = level l
};

}  // namespace regcube

#endif  // REGCUBE_CUBE_DIMENSION_H_
