#ifndef REGCUBE_TESTS_REFERENCE_DRILL_H_
#define REGCUBE_TESTS_REFERENCE_DRILL_H_

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "regcube/core/query.h"
#include "regcube/core/regression_cube.h"
#include "regcube/cube/exception_policy.h"

namespace regcube {
namespace testing_util {

/// Tests-only reference for CubeView::DrillDown: the plain scan. Every
/// retained cell of every drill child of `cuboid` is tested with
/// CuboidLattice::KeyIsDescendant and the child's exception test, and the
/// hits are sorted by (cuboid, canonical key). It keeps none of DrillDown's
/// child probing, so it is the oracle the probe is checked against bit for
/// bit. Header-only and gtest-free, like reference_store.h.
inline std::vector<CellResult> ReferenceDrillDown(const RegressionCube& cube,
                                                  const ExceptionPolicy& policy,
                                                  CuboidId cuboid,
                                                  const CellKey& key) {
  const CuboidLattice& lattice = cube.lattice();
  std::vector<CellResult> out;
  for (CuboidId child : lattice.DrillChildren(cuboid)) {
    const CellMap* cells = cube.CellsAt(child);
    if (cells == nullptr) continue;
    const ExceptionPolicy::CellTest is_exception =
        policy.TestFor(child, SpecDepth(lattice.spec(child)));
    for (const auto& [child_key, isb] : *cells) {
      if (lattice.KeyIsDescendant(child_key, child, key, cuboid) &&
          is_exception(isb)) {
        out.push_back(CellResult{child, child_key, isb, true});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CellResult& a, const CellResult& b) {
              if (a.cuboid != b.cuboid) return a.cuboid < b.cuboid;
              return CanonicalKeyLess(a.key, b.key);
            });
  return out;
}

/// Reference supporters tree: breadth-first over ReferenceDrillDown, each
/// exact (cuboid, key) once, deduplicated in an ordered set (no hashing).
inline std::vector<CellResult> ReferenceSupporters(
    const RegressionCube& cube, const ExceptionPolicy& policy,
    CuboidId cuboid, const CellKey& key) {
  auto ref_less = [](const CellRef& a, const CellRef& b) {
    if (a.cuboid != b.cuboid) return a.cuboid < b.cuboid;
    return CanonicalKeyLess(a.key, b.key);
  };
  std::vector<CellResult> out;
  std::set<CellRef, decltype(ref_less)> seen(ref_less);
  std::deque<CellRef> frontier{CellRef{cuboid, key}};
  while (!frontier.empty()) {
    const CellRef cur = frontier.front();
    frontier.pop_front();
    for (const CellResult& child :
         ReferenceDrillDown(cube, policy, cur.cuboid, cur.key)) {
      if (!seen.insert(CellRef{child.cuboid, child.key}).second) continue;
      out.push_back(child);
      frontier.push_back(CellRef{child.cuboid, child.key});
    }
  }
  return out;
}

}  // namespace testing_util
}  // namespace regcube

#endif  // REGCUBE_TESTS_REFERENCE_DRILL_H_
