#include "regcube/core/incremental_cube.h"

#include <algorithm>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/common/thread_pool.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/core/stream_engine.h"

namespace regcube {

namespace {
// The maintained cube's retained state, reported through MemoryTracker:
// the window's H-tree, the per-cuboid fold indexes, the canonical window
// and the materialized cube itself — the space the O(delta) maintenance
// trades for not re-running H-cubing per snapshot.
constexpr char kMemoCategory[] = "cube.memo";
// The retained run: its entry vector and the frame blocks it shares.
// Counted apart from the memo: the engine's publication and spill rungs
// release these blocks from their own categories, but they stay resident
// for as long as the memo lives.
constexpr char kPinnedCategory[] = "cube.memo.pinned_frames";

// Moves `category`'s registration in `tracker` from `*tracked` to `bytes`.
void Retrack(MemoryTracker* tracker, const char* category,
             std::int64_t bytes, std::int64_t* tracked) {
  if (tracker != nullptr) {
    if (*tracked > 0) tracker->Release(category, *tracked);
    if (bytes > 0) tracker->Add(category, bytes);
  }
  *tracked = bytes;
}
}  // namespace

IncrementalCubeCache::IncrementalCubeCache(
    std::shared_ptr<const CubeSchema> schema,
    StreamCubeEngine::Options options)
    : schema_(std::move(schema)),
      lattice_(*schema_),
      options_(std::move(options)) {
  RC_CHECK(schema_ != nullptr);
  for (CuboidId c = 0; c < lattice_.num_cuboids(); ++c) {
    if (c != lattice_.m_layer_id()) cuboids_.push_back(c);
  }
}

IncrementalCubeCache::~IncrementalCubeCache() {
  Retrack(tracker_, kMemoCategory, 0, &tracked_bytes_);
  Retrack(tracker_, kPinnedCategory, 0, &tracked_pinned_bytes_);
}

void IncrementalCubeCache::AccountLocked() {
  std::int64_t bytes = tree_bytes_ + index_bytes_;
  bytes += static_cast<std::int64_t>(window_.size() * sizeof(MLayerTuple));
  if (cube_ != nullptr) {
    bytes += CellMapMemoryBytes(cube_->m_layer()) +
             CellMapMemoryBytes(cube_->o_layer()) +
             cube_->exceptions().MemoryBytes();
  }
  Retrack(tracker_, kMemoCategory, bytes, &tracked_bytes_);
  const std::int64_t run_entry_bytes =
      run_ != nullptr
          ? static_cast<std::int64_t>(run_->size() * sizeof(CellSnapshot))
          : 0;
  Retrack(tracker_, kPinnedCategory, run_entry_bytes + run_frame_bytes_,
          &tracked_pinned_bytes_);
}

void IncrementalCubeCache::set_memory_tracker(MemoryTracker* tracker) {
  std::lock_guard<std::mutex> lock(mu_);
  Retrack(tracker_, kMemoCategory, 0, &tracked_bytes_);
  Retrack(tracker_, kPinnedCategory, 0, &tracked_pinned_bytes_);
  tracker_ = tracker;
  AccountLocked();
}

void IncrementalCubeCache::Invalidate() {
  Retired retired;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  valid_ = false;
  retired.run = std::move(run_);
  run_frame_bytes_ = 0;
  retired.window = std::move(window_);
  window_.clear();
  retired.tree = std::move(tree_);
  tree_.reset();
  retired.indexes = std::move(indexes_);
  indexes_.clear();
  tree_bytes_ = 0;
  index_bytes_ = 0;
  retired.cube = std::move(cube_);
  AccountLocked();
}

IncrementalCubeCache::Stats IncrementalCubeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::int64_t IncrementalCubeCache::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracked_bytes_;
}

IncrementalCubeCache::DiffVerdict IncrementalCubeCache::DiffLocked(
    const SnapshotCells& run, int level, int k, ThreadPool* pool,
    std::vector<ChangedCell>* changed, std::int64_t* frame_bytes_delta) {
  // The memoized run and the new one are both in canonical key order, so
  // equal populations walk in lockstep; any key divergence is a structural
  // change (a cell appeared) and forces a rebuild — patching could not
  // reproduce a freshly built tree's chain order bit for bit.
  const SnapshotCells& base = *run_;
  if (base.size() != run.size()) return DiffVerdict::kRebuild;
  std::vector<size_t> positions;  // of the cells whose frame changed
  for (size_t i = 0; i < run.size(); ++i) {
    if (!(base[i].key == run[i].key)) return DiffVerdict::kRebuild;
    // A cell whose frame is shared with the memoized run cannot have
    // changed any slot (writers clone a shared frame before mutating it)
    // — skip without touching the frame.
    if (base[i].frame.get() == run[i].frame.get()) continue;
    *frame_bytes_delta +=
        run[i].frame->MemoryBytes() - base[i].frame->MemoryBytes();
    positions.push_back(i);
  }
  // Each changed window regresses once, on the read pool when there is
  // one: the frames are immutable, and each result lands at its position.
  // A pool item is a block of positions, not one: a regression is too
  // small to pay the pool's per-item claim on its own.
  std::vector<Isb> regressed(positions.size());
  std::vector<unsigned char> failed(positions.size(), 0);
  constexpr size_t kBlock = 256;
  ParallelForOrSerial(
      pool, static_cast<std::int64_t>((positions.size() + kBlock - 1) / kBlock),
      [&](std::int64_t block) {
        const size_t begin = static_cast<size_t>(block) * kBlock;
        const size_t end = std::min(positions.size(), begin + kBlock);
        for (size_t j = begin; j < end; ++j) {
          auto isb = run[positions[j]].frame->RegressLastSlots(level, k);
          if (isb.ok()) {
            regressed[j] = *isb;
          } else {
            failed[j] = 1;
          }
        }
      });
  const TimeInterval& window_interval = window_.front().measure.interval;
  // Cells whose window left the memo's interval, and where they went.
  size_t moved = 0;
  TimeInterval moved_to;
  for (size_t j = 0; j < positions.size(); ++j) {
    const size_t i = positions[j];
    // A failing regression (or any other anomaly) falls back to the
    // from-scratch kernel, which reproduces the exact legacy error.
    if (failed[j] != 0) return DiffVerdict::kRebuild;
    const Isb& isb = regressed[j];
    if (isb.interval == window_interval) {
      if (isb == window_[i].measure) continue;  // open-slot churn only
    } else if (moved++ == 0) {
      moved_to = isb.interval;
    } else if (!(isb.interval == moved_to)) {
      return DiffVerdict::kRebuild;  // no common window left to roll to
    }
    changed->push_back(ChangedCell{&run[i].key, isb, i});
  }
  // A slot sealed at this level moves every cell's window at once: an
  // epoch roll. A move that left some cells behind spans two windows,
  // which only the from-scratch kernel answers (with its error).
  if (moved > 0) {
    return moved == run.size() ? DiffVerdict::kRoll : DiffVerdict::kRebuild;
  }
  return changed->empty() ? DiffVerdict::kClean : DiffVerdict::kPatch;
}

const CuboidFoldIndex& IncrementalCubeCache::FoldIndexLocked(
    CuboidId cuboid, std::int64_t* built_bytes) {
  auto& index = indexes_[static_cast<size_t>(cuboid)];
  if (!index.has_value()) {
    index = CuboidFoldIndex::Build(*tree_, lattice_, cuboid);
    *built_bytes = index->MemoryBytes();
  }
  return *index;
}

Status IncrementalCubeCache::ApplyPatchLocked(
    const std::vector<ChangedCell>& changed, ThreadPool* pool) {
  RC_CHECK(tree_.has_value());
  // Fold the new leaf measures into the tree and the memoized window, then
  // refresh the stored aggregates along the dirty paths (shared ancestors
  // refold once, deepest first).
  std::vector<const HTreeNode*> dirty_leaves;
  dirty_leaves.reserve(changed.size());
  for (const ChangedCell& cell : changed) {
    auto leaf = tree_->UpdateLeafMeasure(*schema_, *cell.key, cell.measure);
    if (!leaf.ok()) return leaf.status();
    dirty_leaves.push_back(*leaf);
    window_[cell.pos].measure = cell.measure;
  }
  tree_->RefreshAncestorMeasures(dirty_leaves);

  // Recompute every cuboid cell a changed m-cell rolls up into by
  // refolding its span of the cuboid's fold index. Cuboids are
  // independent, so the work partitions across the pool exactly like
  // from-scratch per-cuboid H-cubing.
  std::vector<std::vector<std::pair<CellKey, Isb>>> recomputed(
      cuboids_.size());
  std::vector<std::int64_t> built_bytes(cuboids_.size(), 0);
  auto patch_one = [&](std::int64_t i) {
    const CuboidId cuboid = cuboids_[static_cast<size_t>(i)];
    const CuboidFoldIndex& index =
        FoldIndexLocked(cuboid, &built_bytes[static_cast<size_t>(i)]);
    std::vector<std::int64_t> touched;
    touched.reserve(changed.size());
    for (const ChangedCell& cell : changed) {
      const CellKey key = lattice_.ProjectMLayerKey(*cell.key, cuboid);
      const std::int64_t c = index.Find(*tree_, key);
      RC_CHECK_GE(c, 0) << "cell " << key.ToString()
                        << " missing from the fold index; structural "
                           "change not rebuilt";
      touched.push_back(c);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    auto& cells = recomputed[static_cast<size_t>(i)];
    cells.reserve(touched.size());
    for (const std::int64_t c : touched) {
      cells.emplace_back(index.KeyOf(*tree_, c), index.Fold(*tree_, c));
    }
  };
  ParallelForOrSerial(pool, static_cast<std::int64_t>(cuboids_.size()),
                      patch_one);
  for (std::int64_t b : built_bytes) index_bytes_ += b;

  // Publish: never mutate a cube some snapshot or caller still holds.
  if (cube_handles_->load(std::memory_order_acquire) > 0) {
    InstallCubeLocked(std::make_shared<RegressionCube>(cube_->Clone()));
  }
  RegressionCube& cube = *cube_;
  const CuboidId o_id = lattice_.o_layer_id();
  const CuboidId m_id = lattice_.m_layer_id();
  for (const ChangedCell& cell : changed) {
    auto it = cube.mutable_m_layer().find(*cell.key);
    RC_CHECK(it != cube.mutable_m_layer().end());
    it->second = cell.measure;
    if (o_id == m_id) {
      // Degenerate lattice: the single cuboid is both critical layers.
      cube.mutable_o_layer()[*cell.key] = cell.measure;
    }
  }
  for (size_t i = 0; i < cuboids_.size(); ++i) {
    const CuboidId cuboid = cuboids_[i];
    if (cuboid == o_id) {
      for (const auto& [key, isb] : recomputed[i]) {
        auto it = cube.mutable_o_layer().find(key);
        RC_CHECK(it != cube.mutable_o_layer().end());
        it->second = isb;
      }
      continue;
    }
    const int depth = SpecDepth(lattice_.spec(cuboid));
    for (const auto& [key, isb] : recomputed[i]) {
      if (options_.policy.IsException(isb, cuboid, depth)) {
        cube.mutable_exceptions().Insert(cuboid, key, isb);
      } else {
        cube.mutable_exceptions().Erase(cuboid, key);
      }
    }
  }
  stats_.patches += 1;
  stats_.patched_cells += static_cast<std::int64_t>(changed.size());
  return Status::OK();
}

void IncrementalCubeCache::ApplyRollLocked(
    const std::vector<ChangedCell>& changed, ThreadPool* pool,
    Retired* retired) {
  RC_CHECK(tree_.has_value());
  RC_CHECK_EQ(changed.size(), window_.size());
  for (const ChangedCell& cell : changed) {
    window_[cell.pos].measure = cell.measure;
  }
  tree_->Rebase(window_);

  // Never mutate a cube some snapshot or caller still holds: roll a copy
  // of its critical layers instead (the exceptions are refolded anyway).
  if (cube_handles_->load(std::memory_order_acquire) > 0) {
    auto fresh = std::make_shared<RegressionCube>(schema_);
    fresh->mutable_m_layer() = cube_->m_layer();
    fresh->mutable_o_layer() = cube_->o_layer();
    retired->cube = std::move(cube_);
    InstallCubeLocked(std::move(fresh));
  }
  RegressionCube& cube = *cube_;
  const CuboidId o_id = lattice_.o_layer_id();
  const bool degenerate = o_id == lattice_.m_layer_id();
  for (const MLayerTuple& cell : window_) {
    auto it = cube.mutable_m_layer().find(cell.key);
    RC_CHECK(it != cube.mutable_m_layer().end());
    it->second = cell.measure;
    if (degenerate) {
      // The single cuboid is both critical layers.
      cube.mutable_o_layer()[cell.key] = cell.measure;
    }
  }

  // A roll moves no cell, so every other cuboid keeps its cells and fold
  // order: index each (on the first patch or roll since the rebuild) and
  // refold it.
  std::vector<std::int64_t> built_bytes(cuboids_.size(), 0);
  ParallelForOrSerial(pool, static_cast<std::int64_t>(cuboids_.size()),
                      [&](std::int64_t i) {
                        FoldIndexLocked(cuboids_[static_cast<size_t>(i)],
                                        &built_bytes[static_cast<size_t>(i)]);
                      });
  for (std::int64_t b : built_bytes) index_bytes_ += b;
  MoCubingOptions mo;
  mo.policy = options_.policy;
  mo.pool = pool;
  retired->exceptions = RefoldCube(*tree_, indexes_, mo, &cube);
}

Result<std::shared_ptr<const RegressionCube>>
IncrementalCubeCache::RebuildLocked(
    const std::shared_ptr<const SnapshotCells>& run, TimeTick clock,
    std::uint64_t revision, int level, int k, ThreadPool* pool,
    Retired* retired) {
  auto window = SnapshotWindowOf(*run, level, k);
  if (!window.ok()) return window.status();
  std::optional<HTree> tree;
  std::shared_ptr<RegressionCube> cube;
  if (options_.algorithm == StreamCubeEngine::Algorithm::kMoCubing) {
    // The one tree the memo keeps: stored subtree measures make every
    // chain node's contribution an O(1) read, here and in later patches
    // and rolls. Its cells are bitwise those of ComputeMoCubing's
    // leaf-only tree (a stored measure is the same FoldLeafRange the lazy
    // walk runs).
    HTree::Options tree_options;
    tree_options.attribute_order = CardinalityAscendingOrder(*schema_);
    tree_options.store_nonleaf_measures = true;
    auto built = HTree::Build(*schema_, *window, std::move(tree_options));
    if (!built.ok()) return built.status();
    tree.emplace(std::move(built).value());
    // A run holds each key once, so every window tuple is its own leaf and
    // the window is the m-layer.
    RC_CHECK_EQ(tree->num_leaves(),
                static_cast<std::int64_t>(window->size()));
    cube = std::make_shared<RegressionCube>(schema_);
    CellMap& m_layer = cube->mutable_m_layer();
    m_layer.reserve(window->size());
    for (const MLayerTuple& cell : *window) {
      m_layer.emplace(cell.key, cell.measure);
    }
    MoCubingOptions mo;
    mo.policy = options_.policy;
    mo.pool = pool;
    MemoryTracker transient;
    CubeFromTree(*tree, mo, transient, cube.get());
  } else {
    auto computed = ComputeCubeFromWindow(schema_, *window, options_, pool);
    if (!computed.ok()) return computed.status();
    cube = std::make_shared<RegressionCube>(std::move(*computed));
  }

  retired->window = std::exchange(window_, std::move(*window));
  retired->run = std::exchange(run_, run);
  run_clock_ = clock;
  run_frame_bytes_ = 0;
  for (const CellSnapshot& cell : *run) {
    run_frame_bytes_ += cell.frame->MemoryBytes();
  }
  revision_ = revision;
  level_ = level;
  k_ = k;
  retired->tree = std::exchange(tree_, std::move(tree));
  retired->indexes = std::move(indexes_);
  indexes_.clear();
  tree_bytes_ = 0;
  index_bytes_ = 0;
  if (tree_.has_value()) {
    tree_bytes_ = tree_->MemoryBytes();
    indexes_.assign(static_cast<size_t>(lattice_.num_cuboids()),
                    std::nullopt);
  }
  retired->cube = std::move(cube_);
  InstallCubeLocked(std::move(cube));
  valid_ = true;
  stats_.rebuilds += 1;
  AccountLocked();
  return HandOutLocked();
}

void IncrementalCubeCache::InstallCubeLocked(
    std::shared_ptr<RegressionCube> cube) {
  cube_ = std::move(cube);
  cube_handles_ = std::make_shared<std::atomic<std::int64_t>>(0);
}

std::shared_ptr<const RegressionCube> IncrementalCubeCache::HandOutLocked() {
  cube_handles_->fetch_add(1, std::memory_order_relaxed);
  // The handle's deleter keeps the cube alive and releases the count.
  return std::shared_ptr<const RegressionCube>(
      cube_.get(), [cube = cube_, handles = cube_handles_](
                       const RegressionCube*) {
        handles->fetch_sub(1, std::memory_order_release);
      });
}

std::shared_ptr<const RegressionCube> IncrementalCubeCache::HitLocked(
    std::uint64_t revision, int level, int k) {
  if (!valid_ || revision != revision_ || level != level_ || k != k_) {
    return nullptr;
  }
  stats_.hits += 1;
  return HandOutLocked();
}

std::shared_ptr<const RegressionCube> IncrementalCubeCache::HitAt(
    std::uint64_t revision, int level, int k) {
  std::lock_guard<std::mutex> lock(mu_);
  return HitLocked(revision, level, k);
}

IncrementalCubeCache::Run IncrementalCubeCache::RunAt(
    std::uint64_t revision) const {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock() || !valid_ || revision != revision_) return {};
  return Run{run_, run_clock_};
}

bool IncrementalCubeCache::WouldEvictDifferentWindow(int level,
                                                     int k) const {
  std::lock_guard<std::mutex> lock(mu_);
  return valid_ && (level != level_ || k != k_);
}

Result<std::shared_ptr<const RegressionCube>> IncrementalCubeCache::CubeFor(
    std::shared_ptr<const SnapshotCells> run, TimeTick clock,
    std::uint64_t revision, int level, int k, ThreadPool* pool) {
  RC_CHECK(run != nullptr);
  Retired retired;  // declared first: freed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  // A reader that gathered before the memo last advanced must not rewind
  // the shared state (revisions are monotonic): serve its stale run from
  // scratch without memoizing, so up-to-date readers keep their memo.
  if (valid_ && revision < revision_) {
    auto window = SnapshotWindowOf(*run, level, k);
    if (!window.ok()) return window.status();
    auto cube = ComputeCubeFromWindow(schema_, *window, options_, pool);
    if (!cube.ok()) return cube.status();
    return std::shared_ptr<const RegressionCube>(
        std::make_shared<RegressionCube>(std::move(*cube)));
  }
  if (auto hit = HitLocked(revision, level, k)) return hit;
  if (valid_ && level == level_ && k == k_) {
    std::vector<ChangedCell> changed;
    std::int64_t frame_bytes_delta = 0;
    // The memo now reflects `run`: move to it and hand the cube out.
    auto advance = [&] {
      revision_ = revision;
      retired.run = std::exchange(run_, std::move(run));
      run_clock_ = clock;
      run_frame_bytes_ += frame_bytes_delta;
      AccountLocked();
      return HandOutLocked();
    };
    // Popular-path cubes keep subtree measures in non-leaf nodes and
    // derive their exception subset from drill reachability; patches and
    // rolls replay only the m/o kernel, so they rebuild instead.
    const bool mo =
        options_.algorithm == StreamCubeEngine::Algorithm::kMoCubing;
    switch (DiffLocked(*run, level, k, pool, &changed,
                       &frame_bytes_delta)) {
      case DiffVerdict::kClean:
        // The writes since the memo touched only open slots; the sealed
        // windows (and therefore the cube) are untouched.
        stats_.revalidations += 1;
        return advance();
      case DiffVerdict::kPatch:
        if (!mo) break;
        if (ApplyPatchLocked(changed, pool).ok()) return advance();
        valid_ = false;  // part-patched: the from-scratch kernel decides
        break;
      case DiffVerdict::kRoll:
        if (!mo) break;
        ApplyRollLocked(changed, pool, &retired);
        stats_.rolls += 1;
        return advance();
      case DiffVerdict::kRebuild:
        break;
    }
  }
  return RebuildLocked(run, clock, revision, level, k, pool, &retired);
}

}  // namespace regcube
