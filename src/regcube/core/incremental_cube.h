#ifndef REGCUBE_CORE_INCREMENTAL_CUBE_H_
#define REGCUBE_CORE_INCREMENTAL_CUBE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/core/exception_store.h"
#include "regcube/core/snapshot_reads.h"
#include "regcube/htree/htree.h"
#include "regcube/htree/htree_cubing.h"

namespace regcube {

class MemoryTracker;
class ThreadPool;

/// The maintained partially-materialized cube — the §4.5 promise made
/// structural: instead of re-running m/o H-cubing over the whole window on
/// every query, the materialized RegressionCube (m-layer, o-layer,
/// exception set) is cached keyed by engine revision, and the next query
/// folds only the cells the delta gather actually changed into it.
///
/// How a patch stays bit-identical to from-scratch H-cubing (the
/// correctness bar every RC_CHECK in the tests and benches enforces):
/// floating-point retraction ((S + x) - x) does not reproduce a recomputed
/// sum's bits, so the memo does not subtract — it re-aggregates. A rebuild
/// builds one H-tree over the window, with stored subtree measures, cubes
/// from it (CubeFromTree, the same cuboid loop and exception fold as
/// ComputeMoCubing) and keeps it. The tree's structure, chains and hash
/// layouts are a function of the canonical key sequence alone, so as long
/// as the cell population is unchanged it is *the* tree a fresh build over
/// the new window would produce. A changed cell updates its leaf in place
/// (HTree::UpdateLeafMeasure), and every cuboid cell it rolls up into is
/// refolded from its span of the cuboid's fold index (CuboidFoldIndex: each
/// cell's chain nodes in the kernel's exact fold order). Touched o-layer
/// cells are overwritten; touched intermediate cells re-evaluate the
/// exception predicate and are inserted into or erased from the exception
/// store. Untouched cells keep their bits because their operand sequences
/// are untouched. An epoch roll moves every cell's window to the same new
/// interval: the tree rebases (HTree::Rebase writes every leaf and refolds
/// every stored node), the m-layer is rewritten in place, and every other
/// cuboid refolds its whole fold index, span by span, with the same loop a
/// patch runs — a roll moves no cell, so no cuboid's cells or fold order
/// change and nothing is re-hashed. This is the paper's §4 shape: one
/// H-tree over the m-layer whose regression measures move with the tilt
/// frame.
///
/// Cost model per query at one (level, k), over n m-layer cells and N
/// chain nodes summed over the cuboids' fold indexes:
///  - revision unchanged:            O(1) (shared-pointer hand-out).
///  - changed frames, same windows:  O(changed cells) regressions to prove
///    the windows didn't move (churn confined to open slots), then O(1).
///  - changed windows, same epoch:   O(Σ touched cells' spans), plus a
///    binary search per touched cell and cuboid — the patch.
///  - every window moved to one new interval, same cells: the roll. n
///    regressions (the diff, across the read pool when there is one), an
///    O(n · tree depth) refold of the tree, n in-place m-layer writes and
///    an O(N) refold of every cuboid, each into a dense array: the o-layer
///    is overwritten in place and only exception cells are hashed. No tree
///    build, no chain scan and no m-layer map build.
///  - the first patch or roll after a rebuild also indexes each cuboid it
///    needs: one chain scan and a sort of its nodes by cell key.
///  - new cells / (level, k) changed / a regression error / popular-path
///    cubing where m/o would patch or roll: full from-scratch cubing (the
///    same tree-and-fold kernel the oracle runs, so a rebuild is trivially
///    bit-identical).
///
/// The memory trade-off (tree + fold indexes + retained cube + window)
/// is accounted to MemoryTracker under "cube.memo". A fold index costs
/// 12 B per packed cell plus 4 B per chain node (at most n nodes per
/// cuboid): ~1.4 MB over the seven non-m cuboids of a 20k-cell D3L2C10
/// window, the price of a roll that never re-cubes. The retained run —
/// its entry vector and the frame blocks it shares — is reported
/// separately, under "cube.memo.pinned_frames": the engine's eviction
/// rungs release those blocks from their own categories while the memo
/// still keeps them alive. The run is also the engine's gather at the
/// memo's revision (RunAt), so one aligned run serves the cube, its diff
/// base and every full read at that revision.
///
/// What a rebuild or roll replaces (the old cube, window, tree, indexes
/// and run) is freed after the memo's mutex is released, so HitAt and
/// RunAt never wait on those frees.
///
/// Both cubing algorithms ride the memo: hits and revalidations depend
/// only on the windows, not on how the cube was built. Only the m/o
/// H-cubing cube is patched and rolled, though; popular-path cubing stores
/// subtree measures in non-leaf nodes and derives its exception subset
/// from drill reachability, so where m/o would patch or roll, a
/// popular-path memo rebuilds from scratch (its `patches` and `rolls`
/// counters stay 0) and keeps no tree.
class IncrementalCubeCache {
 public:
  IncrementalCubeCache(std::shared_ptr<const CubeSchema> schema,
                       StreamCubeEngine::Options options);
  ~IncrementalCubeCache();

  IncrementalCubeCache(const IncrementalCubeCache&) = delete;
  IncrementalCubeCache& operator=(const IncrementalCubeCache&) = delete;

  /// The maintained cube over `run` (a canonical gather at `revision`,
  /// aligned to `clock`) for the (level, k) window. Thread-safe;
  /// maintenance is serialized, hits hand out a counted handle. The
  /// returned cube is immutable: a later patch copies-on-write if anyone
  /// still holds it.
  Result<std::shared_ptr<const RegressionCube>> CubeFor(
      std::shared_ptr<const SnapshotCells> run, TimeTick clock,
      std::uint64_t revision, int level, int k, ThreadPool* pool);

  /// The retained run and the clock it is aligned to, iff the memo is
  /// valid at exactly `revision`; otherwise (and whenever maintenance holds
  /// the memo: the probe only try-locks) `cells` is null and the caller
  /// folds a gather of its own. Never waits, and counts no hit.
  struct Run {
    std::shared_ptr<const SnapshotCells> cells;
    TimeTick clock = 0;
  };
  Run RunAt(std::uint64_t revision) const;

  /// The memoized cube iff the memo is valid for (level, k) at exactly
  /// `revision` (counted as a hit), else nullptr. At its own revision the
  /// memo is what CubeFor returns whatever run it is handed, so a caller
  /// holding the engine's current revision can probe here before paying
  /// for a gather.
  std::shared_ptr<const RegressionCube> HitAt(std::uint64_t revision,
                                              int level, int k);

  /// True iff serving (level, k) would evict a live memo of a *different*
  /// window — the signal for by-value exporters (ComputeCube) to compute
  /// from scratch instead of clobbering the memo cube-kind queries are
  /// riding.
  bool WouldEvictDifferentWindow(int level, int k) const;

  /// Drops the memoized state (and its tracker registration). The next
  /// query rebuilds from scratch.
  void Invalidate();

  /// Maintenance counters (monotone), for tests and benches.
  struct Stats {
    std::int64_t hits = 0;           // served at the memoized revision
    std::int64_t revalidations = 0;  // revision moved, no window moved
    std::int64_t patches = 0;        // folded changed windows into the memo
    std::int64_t rolls = 0;          // refolded the kept tree (epoch roll)
    std::int64_t rebuilds = 0;       // from-scratch (first/new cell/...)
    std::int64_t patched_cells = 0;  // m-cells folded across all patches
  };
  Stats stats() const;

  /// Analytic bytes retained by the memo (tree + fold indexes built so far
  /// + cube + window).
  std::int64_t MemoryBytes() const;

  /// Installs analytic memory accounting under "cube.memo" and
  /// "cube.memo.pinned_frames" (any bytes already memoized are registered
  /// immediately). Pass nullptr to detach.
  /// Not owned; must outlive the cache.
  void set_memory_tracker(MemoryTracker* tracker);

 private:
  // Tests lock `mu_` through it to stand in for maintenance in progress.
  friend class IncrementalCubeCacheTestPeer;

  /// One changed m-layer cell: its key, the window regression the memo
  /// must now reflect, and its position in the canonical run (== its
  /// position in `window_`, since populations match when patching).
  struct ChangedCell {
    const CellKey* key;  // points into `run`; outlives the patch
    Isb measure;
    size_t pos = 0;
  };

  /// Diff outcome: patch with these cells, roll every window to a new
  /// interval, serve as-is, or rebuild.
  enum class DiffVerdict { kClean, kPatch, kRoll, kRebuild };

  /// What maintenance replaced. CubeFor declares one ahead of its lock, so
  /// these are destroyed after `mu_` is released.
  struct Retired {
    std::shared_ptr<const SnapshotCells> run;
    std::shared_ptr<RegressionCube> cube;
    std::vector<MLayerTuple> window;
    std::optional<HTree> tree;
    std::vector<std::optional<CuboidFoldIndex>> indexes;
    ExceptionStore exceptions;
  };

  Result<std::shared_ptr<const RegressionCube>> RebuildLocked(
      const std::shared_ptr<const SnapshotCells>& run, TimeTick clock,
      std::uint64_t revision, int level, int k, ThreadPool* pool,
      Retired* retired);

  /// Tandem-walks the memoized run against `run` (both canonical), using
  /// shared frame pointers to skip unchanged cells without touching them,
  /// and regresses each changed cell's window once. On kPatch, `changed`
  /// holds the cells whose (level, k) windows changed within the memo's
  /// interval; on kRoll, every cell, all moved to one common new interval
  /// (an epoch roll of an unchanged population). kRebuild covers
  /// structural changes, windows split across intervals and regression
  /// errors alike — the from-scratch kernel then reproduces the exact
  /// legacy result or error. Otherwise `frame_bytes_delta` holds how far
  /// `run`'s frame bytes differ from the memoized run's.
  /// The changed windows are regressed on `pool` when it is wide enough;
  /// the verdict and `changed` do not depend on it.
  DiffVerdict DiffLocked(const SnapshotCells& run, int level, int k,
                         ThreadPool* pool, std::vector<ChangedCell>* changed,
                         std::int64_t* frame_bytes_delta);

  /// The fold index of `cuboid` over `tree_`, built by one chain scan on
  /// first use after a rebuild; `*built_bytes` receives its footprint
  /// then and is left alone on reuse. Pool tasks may call it concurrently
  /// for distinct cuboids (each writes only its own slot).
  const CuboidFoldIndex& FoldIndexLocked(CuboidId cuboid,
                                         std::int64_t* built_bytes);

  Status ApplyPatchLocked(const std::vector<ChangedCell>& changed,
                          ThreadPool* pool);

  /// The roll: `changed` is every window position, in order, on the new
  /// interval. Rebases the kept tree, rewrites the m-layer in place and
  /// refolds every other cuboid from its fold index: the o-layer in place,
  /// the exception cells replaced. The cube is copied first when a handle
  /// still holds it.
  void ApplyRollLocked(const std::vector<ChangedCell>& changed,
                       ThreadPool* pool, Retired* retired);

  std::shared_ptr<const RegressionCube> HitLocked(std::uint64_t revision,
                                                  int level, int k);

  /// Makes `cube` the memoized cube, with no handles out yet.
  void InstallCubeLocked(std::shared_ptr<RegressionCube> cube);

  /// A handle to the memoized cube, counted in `cube_handles_` until the
  /// holder drops it. Every cube the memo returns goes through here.
  std::shared_ptr<const RegressionCube> HandOutLocked();

  /// Re-registers the memo's current footprint with the tracker. Tree and
  /// index bytes are cached at build time (patches change values, not
  /// sizes), so this is O(exception cuboids), cheap enough per patch.
  void AccountLocked();

  std::shared_ptr<const CubeSchema> schema_;
  CuboidLattice lattice_;
  StreamCubeEngine::Options options_;
  std::vector<CuboidId> cuboids_;  // every cuboid but the m-layer, by id

  mutable std::mutex mu_;
  bool valid_ = false;
  int level_ = 0;
  int k_ = 0;
  std::uint64_t revision_ = 0;
  // The run the memo reflects and the clock it is aligned to. The memo
  // pins its entry vector and frame blocks (tracked together as
  // "cube.memo.pinned_frames"; `run_frame_bytes_` is summed at a rebuild,
  // then moved by the diff's changed frames only). Frame-pointer equality
  // against the next run is what makes the diff O(changed cells).
  std::shared_ptr<const SnapshotCells> run_;
  TimeTick run_clock_ = 0;
  std::int64_t run_frame_bytes_ = 0;
  // The memoized window in canonical order: the old per-cell measures the
  // diff compares against, and the tree's input (its positions are the
  // positions Rebase writes through).
  std::vector<MLayerTuple> window_;
  // The window's H-tree with stored subtree measures (m/o cubing only),
  // built by each rebuild and kept until the next: the cube was computed
  // from it, patches and rolls refold it. Per-cuboid fold indexes are
  // each built by one chain scan on the first patch or roll to need the
  // cuboid, and live until the next rebuild (a roll changes no node id).
  std::optional<HTree> tree_;
  std::vector<std::optional<CuboidFoldIndex>> indexes_;  // by cuboid id
  std::int64_t tree_bytes_ = 0;     // cached at tree build
  std::int64_t index_bytes_ = 0;    // cached, updated per index build
  // Non-const internally so patches can fold in place when nobody else
  // holds the cube; handed out as shared_ptr<const RegressionCube> and
  // copied-on-write otherwise.
  std::shared_ptr<RegressionCube> cube_;
  // Handles to `cube_` still held. A holder's drop is a release decrement
  // and the patch's check an acquire load, so every read through a dropped
  // handle happens-before an in-place patch. `use_count()` cannot say
  // that: it is a relaxed load.
  std::shared_ptr<std::atomic<std::int64_t>> cube_handles_ =
      std::make_shared<std::atomic<std::int64_t>>(0);
  Stats stats_;
  std::int64_t tracked_bytes_ = 0;
  std::int64_t tracked_pinned_bytes_ = 0;
  MemoryTracker* tracker_ = nullptr;
};

}  // namespace regcube

#endif  // REGCUBE_CORE_INCREMENTAL_CUBE_H_
