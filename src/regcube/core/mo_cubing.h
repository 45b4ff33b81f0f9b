#ifndef REGCUBE_CORE_MO_CUBING_H_
#define REGCUBE_CORE_MO_CUBING_H_

#include <memory>
#include <optional>
#include <vector>

#include "regcube/common/memory_tracker.h"
#include "regcube/common/status.h"
#include "regcube/cube/exception_policy.h"
#include "regcube/core/regression_cube.h"
#include "regcube/htree/htree.h"
#include "regcube/htree/htree_cubing.h"

namespace regcube {

class ThreadPool;

/// Options for Algorithm 1.
struct MoCubingOptions {
  /// Exception predicate for the cuboids between the critical layers.
  ExceptionPolicy policy{0.0};

  /// H-tree level order; empty selects the cardinality-ascending order of
  /// Example 5 (maximum prefix sharing).
  std::vector<Attribute> attribute_order;

  /// Optional external tracker (e.g. shared across benchmark phases).
  /// If null, the run uses an internal tracker.
  MemoryTracker* tracker = nullptr;

  /// Optional pool partitioning the per-cuboid H-cubing across threads
  /// (the H-tree is read-only during Step 2, so cuboids are independent).
  /// Null or a pool with a single worker keeps the sequential
  /// one-cuboid-at-a-time loop, whose transient-memory accounting matches
  /// the paper's figures. The computed cube is identical either way.
  ThreadPool* pool = nullptr;
};

/// Step 2 of Algorithm 1 over an already built tree (leaf-only or stored
/// measures; the cells are bitwise the same): H-cubes every cuboid
/// between the critical layers and folds it into `cube`, replacing the
/// o-layer and retaining only exception cells in between. `cube` holds its
/// m-layer already (a degenerate lattice copies it to the o-layer) and an
/// empty exception store. Sets the cube's cells_computed and
/// exception_cells and charges `tracker`; uses `options`' policy and pool.
/// ComputeMoCubing runs it on its throwaway tree, and the maintained cube
/// on the tree it keeps, after each rebuild and each epoch roll.
void CubeFromTree(const HTree& tree, const MoCubingOptions& options,
                  MemoryTracker& tracker, RegressionCube* cube);

/// An epoch roll's CubeFromTree: the cells of every cuboid are unchanged,
/// only their measures moved, so each non-m cuboid refolds its fold index
/// over `tree` (indexes by cuboid id; every non-m cuboid's is present)
/// into a dense array, one `options.pool` task per cuboid. The o-layer is
/// overwritten in place and the cuboids in between keep their exception
/// cells: bitwise what CubeFromTree computes over the same tree, without
/// its chain scans and per-cell hashing. Sets cells_computed and
/// exception_cells like CubeFromTree and returns the exception store it
/// replaced. Pre: `cube`'s o-layer holds exactly the o-layer index's
/// cells (the m-layer and a degenerate o-layer are the caller's).
ExceptionStore RefoldCube(
    const HTree& tree,
    const std::vector<std::optional<CuboidFoldIndex>>& indexes,
    const MoCubingOptions& options, RegressionCube* cube);

/// Algorithm 1 (m/o H-cubing): builds the H-tree with measures only at the
/// leaves, then computes *every* cuboid between the m- and o-layers via
/// node-link traversal, retaining all cells at the two critical layers and
/// only the exception cells in between.
///
/// All tuples must share one time interval (Theorem 3.2). Errors propagate
/// from tree construction.
Result<RegressionCube> ComputeMoCubing(std::shared_ptr<const CubeSchema> schema,
                                       const std::vector<MLayerTuple>& tuples,
                                       const MoCubingOptions& options);

}  // namespace regcube

#endif  // REGCUBE_CORE_MO_CUBING_H_
