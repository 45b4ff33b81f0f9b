#include "regcube/core/mo_cubing.h"

#include <algorithm>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/stopwatch.h"
#include "regcube/common/thread_pool.h"
#include "regcube/htree/htree_cubing.h"

namespace regcube {

Result<RegressionCube> ComputeMoCubing(
    std::shared_ptr<const CubeSchema> schema,
    const std::vector<MLayerTuple>& tuples, const MoCubingOptions& options) {
  RC_CHECK(schema != nullptr);
  MemoryTracker local_tracker;
  MemoryTracker& tracker = options.tracker ? *options.tracker : local_tracker;

  RegressionCube cube(schema);
  CubingStats& stats = cube.mutable_stats();

  // Step 1: aggregate the stream to the m-layer and build the H-tree,
  // regression points at the leaves only.
  Stopwatch build_timer;
  HTree::Options tree_options;
  tree_options.attribute_order = options.attribute_order.empty()
                                     ? CardinalityAscendingOrder(*schema)
                                     : options.attribute_order;
  tree_options.store_nonleaf_measures = false;
  auto tree_result = HTree::Build(*schema, tuples, std::move(tree_options));
  if (!tree_result.ok()) return tree_result.status();
  HTree tree = std::move(tree_result).value();
  stats.build_tree_seconds = build_timer.ElapsedSeconds();
  stats.htree_nodes = tree.num_nodes();
  stats.htree_bytes = tree.MemoryBytes();
  tracker.Add("htree", stats.htree_bytes);

  // The m-layer is retained in full (it is the base of the stored cube).
  Stopwatch compute_timer;
  for (MLayerTuple& cell : tree.MLayerCells()) {
    cube.mutable_m_layer().emplace(cell.key, cell.measure);
  }
  tracker.Add("m-layer", CellMapMemoryBytes(cube.m_layer()));

  // Step 2: H-cube every cuboid from the m-layer up to the o-layer.
  CubeFromTree(tree, options, tracker, &cube);
  stats.compute_seconds = compute_timer.ElapsedSeconds();

  stats.peak_memory_bytes = tracker.peak_bytes();
  stats.retained_memory_bytes =
      stats.htree_bytes + CellMapMemoryBytes(cube.m_layer()) +
      CellMapMemoryBytes(cube.o_layer()) + cube.exceptions().MemoryBytes();
  return cube;
}

void CubeFromTree(const HTree& tree, const MoCubingOptions& options,
                  MemoryTracker& tracker, RegressionCube* cube) {
  const CuboidLattice& lattice = cube->lattice();
  CubingStats& stats = cube->mutable_stats();
  stats.cells_computed = 0;
  stats.exception_cells = 0;

  // All cells are computed; only exception cells are retained in between
  // ("except for the o-layer in which all cells are retained for
  // observation").
  if (lattice.o_layer_id() == lattice.m_layer_id()) {
    // Degenerate lattice: the single cuboid is both critical layers.
    cube->mutable_o_layer() = cube->m_layer();
    tracker.Add("o-layer", CellMapMemoryBytes(cube->o_layer()));
  }

  // Retains one computed cuboid into the cube (o-layer in full, exception
  // cells in between). Always runs sequentially so stats accumulate
  // deterministically, whether the cells were cubed serially or on a pool.
  // Cells stay in the kernel's transient form; only the o-layer (retained
  // in full) pays a CellMap materialization.
  auto fold = [&](CuboidId cuboid, const CuboidCells& cells) {
    stats.cells_computed += cells.size();
    if (cuboid == lattice.o_layer_id()) {
      cube->mutable_o_layer() = cells.ToCellMap();
      tracker.Add("o-layer", CellMapMemoryBytes(cube->o_layer()));
      return;
    }
    const int depth = SpecDepth(lattice.spec(cuboid));
    CellMap retained;
    cells.ForEachWhere(
        options.policy.TestFor(cuboid, depth),
        [&](const CellKey& key, const Isb& isb) { retained.emplace(key, isb); });
    stats.exception_cells += static_cast<std::int64_t>(retained.size());
    tracker.Add("exceptions", CellMapMemoryBytes(retained));
    cube->mutable_exceptions().Adopt(cuboid, std::move(retained));
  };

  std::vector<CuboidId> cuboids;
  cuboids.reserve(static_cast<size_t>(lattice.num_cuboids()));
  for (CuboidId cuboid = 0; cuboid < lattice.num_cuboids(); ++cuboid) {
    if (cuboid != lattice.m_layer_id()) cuboids.push_back(cuboid);
  }

  // A pool without real parallelism must keep the sequential loop: the
  // partitioned path holds every cuboid's transient cells alive at once,
  // a memory multiple worth paying only for a wall-clock return.
  if (options.pool != nullptr && options.pool->num_threads() > 1) {
    // Pool-partitioned: all cuboids' transient cells are alive at once, and
    // the peak accounting says so honestly.
    std::vector<CuboidCells> maps = ComputeCuboidCellsTransientPartitioned(
        tree, lattice, cuboids, options.pool);
    std::int64_t transient_bytes = 0;
    for (const CuboidCells& m : maps) transient_bytes += m.MemoryBytes();
    tracker.Add("transient", transient_bytes);
    for (size_t i = 0; i < cuboids.size(); ++i) {
      fold(cuboids[i], maps[i]);
    }
    tracker.Release("transient", transient_bytes);
  } else {
    for (CuboidId cuboid : cuboids) {
      const CuboidCells cells =
          ComputeCuboidCellsTransient(tree, lattice, cuboid);
      const std::int64_t transient_bytes = cells.MemoryBytes();
      tracker.Add("transient", transient_bytes);
      fold(cuboid, cells);
      tracker.Release("transient", transient_bytes);
    }
  }
}

ExceptionStore RefoldCube(
    const HTree& tree,
    const std::vector<std::optional<CuboidFoldIndex>>& indexes,
    const MoCubingOptions& options, RegressionCube* cube) {
  const CuboidLattice& lattice = cube->lattice();
  const CuboidId o_id = lattice.o_layer_id();
  std::vector<CuboidId> cuboids;
  for (CuboidId cuboid = 0; cuboid < lattice.num_cuboids(); ++cuboid) {
    if (cuboid != lattice.m_layer_id()) cuboids.push_back(cuboid);
  }
  std::vector<CellMap> retained(cuboids.size());
  auto refold_one = [&](std::int64_t i) {
    const CuboidId cuboid = cuboids[static_cast<size_t>(i)];
    const CuboidFoldIndex& index = *indexes[static_cast<size_t>(cuboid)];
    std::vector<Isb> cells;
    index.FoldAll(tree, &cells);
    if (cuboid == o_id) {
      // Only this task touches the o-layer.
      for (std::int64_t c = 0; c < index.num_cells(); ++c) {
        auto it = cube->mutable_o_layer().find(index.KeyOf(tree, c));
        RC_CHECK(it != cube->mutable_o_layer().end());
        it->second = cells[static_cast<size_t>(c)];
      }
      return;
    }
    const auto is_exception =
        options.policy.TestFor(cuboid, SpecDepth(lattice.spec(cuboid)));
    CellMap& kept = retained[static_cast<size_t>(i)];
    kept.reserve(static_cast<size_t>(
        std::count_if(cells.begin(), cells.end(), is_exception)));
    for (std::int64_t c = 0; c < index.num_cells(); ++c) {
      const Isb& isb = cells[static_cast<size_t>(c)];
      if (is_exception(isb)) kept.emplace(index.KeyOf(tree, c), isb);
    }
  };
  ParallelForOrSerial(options.pool, static_cast<std::int64_t>(cuboids.size()),
                      refold_one);

  CubingStats& stats = cube->mutable_stats();
  stats.cells_computed = 0;
  stats.exception_cells = 0;
  ExceptionStore exceptions;
  for (size_t i = 0; i < cuboids.size(); ++i) {
    stats.cells_computed +=
        indexes[static_cast<size_t>(cuboids[i])]->num_cells();
    stats.exception_cells += static_cast<std::int64_t>(retained[i].size());
    exceptions.Adopt(cuboids[i], std::move(retained[i]));
  }
  return std::exchange(cube->mutable_exceptions(), std::move(exceptions));
}

}  // namespace regcube
