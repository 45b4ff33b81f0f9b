#include "regcube/core/popular_path.h"

#include <algorithm>
#include <unordered_map>

#include "regcube/common/logging.h"
#include "regcube/common/stopwatch.h"
#include "regcube/common/thread_pool.h"
#include "regcube/htree/htree_cubing.h"

namespace regcube {

Result<RegressionCube> ComputePopularPathCubing(
    std::shared_ptr<const CubeSchema> schema,
    const std::vector<MLayerTuple>& tuples,
    const PopularPathOptions& options) {
  RC_CHECK(schema != nullptr);
  MemoryTracker local_tracker;
  MemoryTracker& tracker = options.tracker ? *options.tracker : local_tracker;

  RegressionCube cube(schema);
  const CuboidLattice& lattice = cube.lattice();
  CubingStats& stats = cube.mutable_stats();

  DrillPath path = options.path.has_value() ? *options.path
                                            : DrillPath::MakeDefault(lattice);
  RC_RETURN_IF_ERROR(DrillPath::Validate(lattice, path));

  // Step 1: H-tree in the path's attribute-introduction order, aggregated
  // regression points stored in the non-leaf nodes (the path cells live in
  // the tree).
  Stopwatch build_timer;
  HTree::Options tree_options;
  tree_options.attribute_order = PathIntroductionOrder(lattice, path);
  tree_options.store_nonleaf_measures = true;
  auto tree_result = HTree::Build(*schema, tuples, std::move(tree_options));
  if (!tree_result.ok()) return tree_result.status();
  HTree tree = std::move(tree_result).value();
  stats.build_tree_seconds = build_timer.ElapsedSeconds();
  stats.htree_nodes = tree.num_nodes();
  stats.htree_bytes = tree.MemoryBytes();
  tracker.Add("htree", stats.htree_bytes);

  Stopwatch compute_timer;

  // Flat by-cuboid arrays instead of tiny hash maps: membership on the
  // path and cuboid -> tree prefix depth (-1 off the path).
  std::vector<char> on_path(static_cast<size_t>(lattice.num_cuboids()), 0);
  std::vector<int> path_depth(static_cast<size_t>(lattice.num_cuboids()), -1);
  {
    int base_depth = static_cast<int>(
        lattice.AttributesOf(path.steps.front()).size());
    for (size_t i = 0; i < path.steps.size(); ++i) {
      on_path[static_cast<size_t>(path.steps[i])] = 1;
      path_depth[static_cast<size_t>(path.steps[i])] =
          base_depth + static_cast<int>(i);
    }
  }

  // Cells drilled into off-path cuboids, held until that cuboid is
  // processed (in the kernels' transient form — packed flat maps under the
  // codec); exception cells per cuboid seed further drilling.
  std::unordered_map<CuboidId, CuboidCells> drilled_cells;

  // Steps 2+3 interleaved in topological (roll-up depth) order: every
  // cuboid is visited after all of its roll-up parents, so its computed
  // cells are complete when its exceptions are evaluated.
  std::vector<CuboidId> order(static_cast<size_t>(lattice.num_cuboids()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<CuboidId>(i);
  std::sort(order.begin(), order.end(), [&](CuboidId a, CuboidId b) {
    const int da = SpecDepth(lattice.spec(a));
    const int db = SpecDepth(lattice.spec(b));
    return da != db ? da < db : a < b;
  });

  for (CuboidId x : order) {
    const int depth_x = SpecDepth(lattice.spec(x));
    CellMap exceptions_x;
    // Non-critical cuboids hand their filter map to the store once the
    // drill loop below is done reading it (Adopt moves, never copies).
    bool retain_exceptions = false;

    if (on_path[static_cast<size_t>(x)] != 0) {
      const CuboidCells cells = ReadPrefixCuboidCellsTransient(
          tree, lattice, x, path_depth[static_cast<size_t>(x)]);
      stats.cells_computed += cells.size();
      const std::int64_t transient_bytes = cells.MemoryBytes();
      tracker.Add("transient", transient_bytes);
      cells.ForEachWhere(options.policy.TestFor(x, depth_x),
                         [&](const CellKey& key, const Isb& isb) {
                           exceptions_x.emplace(key, isb);
                         });
      if (x == lattice.o_layer_id()) {
        if (x == lattice.m_layer_id()) {
          // Degenerate lattice: the single cuboid is both critical layers.
          cube.mutable_m_layer() = cells.ToCellMap();
          tracker.Add("m-layer", CellMapMemoryBytes(cube.m_layer()));
        }
        cube.mutable_o_layer() = cells.ToCellMap();
        tracker.Add("o-layer", CellMapMemoryBytes(cube.o_layer()));
      } else if (x == lattice.m_layer_id()) {
        cube.mutable_m_layer() = cells.ToCellMap();
        tracker.Add("m-layer", CellMapMemoryBytes(cube.m_layer()));
      } else {
        stats.exception_cells +=
            static_cast<std::int64_t>(exceptions_x.size());
        tracker.Add("exceptions", CellMapMemoryBytes(exceptions_x));
        retain_exceptions = true;
      }
      tracker.Release("transient", transient_bytes);
    } else {
      auto it = drilled_cells.find(x);
      if (it == drilled_cells.end()) continue;  // nothing reached this cuboid
      it->second.ForEachWhere(options.policy.TestFor(x, depth_x),
                              [&](const CellKey& key, const Isb& isb) {
                                exceptions_x.emplace(key, isb);
                              });
      stats.exception_cells += static_cast<std::int64_t>(exceptions_x.size());
      tracker.Add("exceptions", CellMapMemoryBytes(exceptions_x));
      retain_exceptions = true;
      tracker.Release("drilled", it->second.MemoryBytes());
      drilled_cells.erase(it);
    }

    if (exceptions_x.empty()) continue;
    if (x == lattice.m_layer_id()) {  // recursion ends at the m-layer
      if (retain_exceptions) {
        cube.mutable_exceptions().Adopt(x, std::move(exceptions_x));
      }
      continue;
    }

    // Drill the exception cells of x into every non-computed child cuboid,
    // rolling up from the closest computed cuboid below (the deepest tree
    // prefix — encapsulated in ComputeDrillChildren's stored node measures).
    // The per-child chain scans only read the tree, so they fan out across
    // the pool; folding stays sequential in child order, so the drilled
    // maps (keep-first merges) and stats are identical to the serial loop.
    std::vector<CuboidId> targets;
    for (CuboidId y : lattice.DrillChildren(x)) {
      if (on_path[static_cast<size_t>(y)] == 0) targets.push_back(y);
    }
    std::vector<CuboidCells> scans(targets.size());
    auto drill_one = [&](std::int64_t i) {
      scans[static_cast<size_t>(i)] = ComputeDrillChildrenTransient(
          tree, lattice, x, exceptions_x, targets[static_cast<size_t>(i)]);
    };
    ParallelForOrSerial(options.pool,
                        static_cast<std::int64_t>(targets.size()), drill_one);
    for (size_t i = 0; i < targets.size(); ++i) {
      const CuboidCells& children = scans[i];
      stats.cells_computed += children.size();
      CuboidCells& dest = drilled_cells[targets[i]];
      const std::int64_t before = dest.MemoryBytes();
      // Same totals under any parent: keep first.
      dest.MergeKeepFirst(children);
      tracker.Add("drilled", dest.MemoryBytes() - before);
    }
    if (retain_exceptions) {
      cube.mutable_exceptions().Adopt(x, std::move(exceptions_x));
    }
  }
  RC_CHECK(drilled_cells.empty())
      << "drilled cells left unprocessed; topological order broken";
  stats.compute_seconds = compute_timer.ElapsedSeconds();

  stats.peak_memory_bytes = tracker.peak_bytes();
  stats.retained_memory_bytes =
      stats.htree_bytes + CellMapMemoryBytes(cube.m_layer()) +
      CellMapMemoryBytes(cube.o_layer()) + cube.exceptions().MemoryBytes();
  return cube;
}

}  // namespace regcube
