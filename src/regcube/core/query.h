#ifndef REGCUBE_CORE_QUERY_H_
#define REGCUBE_CORE_QUERY_H_

#include <string>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/core/regression_cube.h"
#include "regcube/cube/exception_policy.h"

namespace regcube {

/// A cell surfaced by a query, with enough context to display or drill.
struct CellResult {
  CuboidId cuboid = -1;
  CellKey key;
  Isb isb;
  bool is_exception = false;
};

/// Human-readable rendering of a cell against any schema/lattice pair
/// ("[web, 10.3/16] slope=+1.23456 base=0.5 (EXCEPTION)"). Shared by
/// CubeView::RenderCell and the facade's Engine::RenderCell, which has no
/// materialized cube at hand.
std::string RenderCellWith(const CubeSchema& schema,
                           const CuboidLattice& lattice,
                           const CellResult& cell);

/// Read-side API over a computed RegressionCube: point lookups, exception
/// listings, and the exception-guided drill-down of Framework 4.1 ("drill
/// on the exception cells down to lower layers to find their corresponding
/// exception supporters").
class CubeView {
 public:
  /// `cube` must outlive the view.
  CubeView(const RegressionCube& cube, const ExceptionPolicy& policy);

  /// Looks up a retained cell (m-layer, o-layer, or a stored exception).
  /// NotFound if the cell was not retained.
  Result<Isb> GetCell(CuboidId cuboid, const CellKey& key) const;

  /// Computes any cell on the fly from the retained m-layer by direct
  /// aggregation (for cells pruned as non-exceptions), summing the members
  /// in canonical key order. O(|m-layer|).
  Result<Isb> ComputeCellOnTheFly(CuboidId cuboid, const CellKey& key) const;

  /// All retained exception cells of one cuboid, in canonical key order.
  std::vector<CellResult> ExceptionsAt(CuboidId cuboid) const;

  /// Retained exception children of `key` one drill step below `cuboid`
  /// (the next layer of "supporters"), ordered by (cuboid, canonical key).
  /// The m-layer counts as computed, so drilling from the last intermediate
  /// layer surfaces exceptional m-cells. Each child cuboid costs the
  /// drilled value's children (hash probes), or one scan of the cuboid
  /// when it holds fewer cells than that or the step drills out of `*`.
  /// A key that is no cell of `cuboid` (wrong dimension count, a star or a
  /// value where none can be) has no descendants.
  std::vector<CellResult> DrillDown(CuboidId cuboid, const CellKey& key) const;

  /// Full supporters tree: recursively drills from `key` and returns every
  /// reachable retained exception descendant once, in BFS order (each
  /// level in DrillDown's order).
  std::vector<CellResult> ExceptionSupporters(CuboidId cuboid,
                                              const CellKey& key) const;

  /// The strongest `n` retained exception cells by |slope| across all
  /// intermediate cuboids; equal |slope| is broken by (cuboid, canonical
  /// key), so which cells make the cut never depends on hash-map history.
  std::vector<CellResult> TopExceptions(std::size_t n) const;

  /// Human-readable rendering of a cell, using dimension level names.
  std::string RenderCell(const CellResult& cell) const;

 private:
  /// The exception test of `cuboid`, its threshold resolved once.
  ExceptionPolicy::CellTest ExceptionTestFor(CuboidId cuboid) const;

  const RegressionCube* cube_;
  const ExceptionPolicy* policy_;
};

}  // namespace regcube

#endif  // REGCUBE_CORE_QUERY_H_
