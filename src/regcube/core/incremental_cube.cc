#include "regcube/core/incremental_cube.h"

#include <unordered_set>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/common/thread_pool.h"
#include "regcube/core/stream_engine.h"

namespace regcube {

namespace {
// The maintained cube's retained state, reported through MemoryTracker:
// the window's H-tree, the per-cuboid member indexes, the canonical window
// and the materialized cube itself — the space the O(delta) maintenance
// trades for not re-running H-cubing per snapshot.
constexpr char kMemoCategory[] = "cube.memo";
// The frame blocks of the retained run. Counted apart from the memo: the
// engine's cache and spill rungs release these blocks from their own
// categories, but they stay resident for as long as the memo lives.
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
  Retrack(tracker_, kPinnedCategory, run_frame_bytes_,
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
  std::lock_guard<std::mutex> lock(mu_);
  valid_ = false;
  run_.reset();
  run_frame_bytes_ = 0;
  window_.clear();
  window_.shrink_to_fit();
  tree_.reset();
  indexes_.clear();
  index_full_.clear();
  index_bytes_by_cuboid_.clear();
  index_seed_budget_.clear();
  prefix_depth_.clear();
  tree_bytes_ = 0;
  index_bytes_ = 0;
  cube_.reset();
  AccountLocked();
}

void IncrementalCubeCache::set_member_lookup(MemberLookup lookup) {
  std::lock_guard<std::mutex> lock(mu_);
  member_lookup_ = std::move(lookup);
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
    const SnapshotCells& run, int level, int k,
    std::vector<ChangedCell>* changed, std::int64_t* frame_bytes_delta) {
  // The memoized run and the new one are both in canonical key order, so
  // equal populations walk in lockstep; any key divergence is a structural
  // change (a cell appeared) and forces a rebuild — patching could not
  // reproduce a freshly built tree's chain order bit for bit.
  const SnapshotCells& base = *run_;
  if (base.size() != run.size()) return DiffVerdict::kRebuild;
  const TimeInterval& window_interval = window_.front().measure.interval;
  for (size_t i = 0; i < run.size(); ++i) {
    if (!(base[i].key == run[i].key)) return DiffVerdict::kRebuild;
    // A cell whose frame is shared with the memoized run cannot have
    // changed any slot (writers clone a shared frame before mutating it)
    // — skip without touching the frame.
    if (base[i].frame.get() == run[i].frame.get()) continue;
    *frame_bytes_delta +=
        run[i].frame->MemoryBytes() - base[i].frame->MemoryBytes();
    auto isb = run[i].frame->RegressLastSlots(level, k);
    // A failing regression (or any other anomaly) falls back to the
    // from-scratch kernel, which reproduces the exact legacy error.
    if (!isb.ok()) return DiffVerdict::kRebuild;
    // The window moved for everyone when its slot interval moved (a new
    // slot sealed at this level): that is an epoch roll, not a patch.
    if (!(isb->interval == window_interval)) return DiffVerdict::kRebuild;
    if (*isb == window_[i].measure) continue;  // open-slot churn only
    changed->push_back(ChangedCell{&run[i].key, *isb, i});
  }
  return changed->empty() ? DiffVerdict::kClean : DiffVerdict::kPatch;
}

Status IncrementalCubeCache::ApplyPatchLocked(
    const std::vector<ChangedCell>& changed, ThreadPool* pool) {
  // Lazily build the patch machinery: the H-tree over the memoized window.
  // Built from the same canonical tuple sequence a fresh cubing run would
  // use, so its structure, chains and hash layouts are identical to the
  // tree the from-scratch kernel would build — the property every
  // bit-identity argument below rests on.
  if (!tree_.has_value()) {
    HTree::Options tree_options;
    tree_options.attribute_order = CardinalityAscendingOrder(*schema_);
    // Stored subtree measures make every chain node's contribution an O(1)
    // read during cell re-aggregation. The build-time fold is bitwise
    // equal to the lazy subtree walk of the from-scratch (m/o) tree, so
    // the oracle relationship is unchanged; the patch below keeps the
    // stored measures current along the dirty paths only.
    tree_options.store_nonleaf_measures = true;
    auto built = HTree::Build(*schema_, window_, std::move(tree_options));
    if (!built.ok()) return built.status();
    tree_ = std::move(built).value();
    tree_bytes_ = tree_->MemoryBytes();
    indexes_.assign(static_cast<size_t>(lattice_.num_cuboids()),
                    std::nullopt);
    index_full_.assign(static_cast<size_t>(lattice_.num_cuboids()), 0);
    index_bytes_by_cuboid_.assign(static_cast<size_t>(lattice_.num_cuboids()),
                                  0);
    index_seed_budget_.assign(static_cast<size_t>(lattice_.num_cuboids()),
                              -1);
    index_bytes_ = 0;
    // Tree-prefix cuboids (the deepest introduced level per dimension over
    // each attribute-order prefix, when that spec lies in the lattice) get
    // the node-is-cell shortcut below.
    prefix_depth_.assign(static_cast<size_t>(lattice_.num_cuboids()), -1);
    const LayerSpec& o = schema_->o_layer();
    const LayerSpec& m = schema_->m_layer();
    LayerSpec deepest(static_cast<size_t>(schema_->num_dims()), 0);
    for (int pos = 0; pos < tree_->num_attributes(); ++pos) {
      const Attribute& a = tree_->attribute(pos);
      auto& level = deepest[static_cast<size_t>(a.dim)];
      level = std::max(level, a.level);
      bool in_lattice = true;
      for (size_t d = 0; d < deepest.size(); ++d) {
        in_lattice = in_lattice && deepest[d] >= o[d] && deepest[d] <= m[d];
      }
      if (in_lattice) {
        prefix_depth_[static_cast<size_t>(lattice_.id(deepest))] = pos + 1;
      }
    }
  }

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
  std::vector<std::vector<const HTreeNode*>> dirty_by_depth;
  tree_->RefreshAncestorMeasures(dirty_leaves, &dirty_by_depth);

  // Recompute every cuboid cell a changed m-cell rolls up into, each from
  // its member index in kernel order. Cuboids are independent, so the work
  // partitions across the pool exactly like from-scratch per-cuboid
  // H-cubing.
  std::vector<CuboidId> cuboids;
  cuboids.reserve(static_cast<size_t>(lattice_.num_cuboids()));
  for (CuboidId c = 0; c < lattice_.num_cuboids(); ++c) {
    if (c != lattice_.m_layer_id()) cuboids.push_back(c);
  }
  std::vector<PatchedCells> recomputed(cuboids.size());
  std::vector<std::int64_t> built_index_bytes(cuboids.size(), 0);
  auto patch_one = [&](std::int64_t i) {
    const CuboidId cuboid = cuboids[static_cast<size_t>(i)];
    const int depth = prefix_depth_[static_cast<size_t>(cuboid)];
    if (depth >= 0) {
      // Prefix shortcut: the refreshed dirty nodes at this depth are the
      // touched cells, measures already folded.
      recomputed[static_cast<size_t>(i)] = PrefixCellsFromNodes(
          *tree_, lattice_, cuboid, depth,
          dirty_by_depth[static_cast<size_t>(depth)]);
      return;
    }
    std::unordered_set<CellKey, CellKeyHash> seen;
    seen.reserve(changed.size() * 2);
    std::vector<CellKey> touched;
    touched.reserve(changed.size());
    for (const ChangedCell& cell : changed) {
      CellKey key = lattice_.ProjectMLayerKey(*cell.key, cuboid);
      if (seen.insert(key).second) touched.push_back(std::move(key));
    }
    // Make every touched cell resolvable. Small deltas — the online
    // trickle the maintained cube exists for — seed their missing entries
    // from the ingest-maintained member lookup: O(members of the touched
    // cells), no chain scan, so a handful of late cells never pays the
    // cuboid-wide O(chain nodes) build. Bulk patches go straight to the
    // complete chain-scan build (the pre-seeding behavior): per-cell
    // resolution has real constant costs (cross-shard probes, leaf
    // walks), and once the member volume rivals one chain scan the scan
    // is strictly better — it serves the tree's whole lifetime. A
    // cumulative per-cuboid budget (the cuboid's own chain length) caps
    // total seeding spend the same way, and any disagreement with the
    // memoized tree (a member newer than the window) falls back too.
    auto& index = indexes_[static_cast<size_t>(cuboid)];
    if (!index.has_value()) index.emplace();
    std::int64_t added_bytes = 0;
    if (index_full_[static_cast<size_t>(cuboid)] == 0) {
      std::vector<CellKey> missing;
      missing.reserve(touched.size());
      for (const CellKey& key : touched) {
        if (index->Find(*tree_, key) == nullptr) missing.push_back(key);
      }
      std::int64_t& budget = index_seed_budget_[static_cast<size_t>(cuboid)];
      if (budget < 0) budget = CuboidChainLength(*tree_, lattice_, cuboid);
      bool seeded = missing.empty();
      // The trickle gate: beyond this many missing cells the complete
      // build amortizes better than per-cell resolution (and an
      // undersized budget is known before paying for the lookup).
      constexpr size_t kSeedMissingMax = 64;
      if (!seeded &&
          (missing.size() > kSeedMissingMax ||
           static_cast<std::int64_t>(missing.size()) * 2 > budget)) {
        budget = 0;
      }
      if (!seeded && member_lookup_ && budget > 0) {
        const auto member_lists = member_lookup_(cuboid, missing);
        RC_CHECK(member_lists.size() == missing.size());
        for (const auto& members : member_lists) {
          budget -= static_cast<std::int64_t>(members.size());
        }
        seeded = true;
        for (size_t m = 0; m < missing.size(); ++m) {
          auto nodes = SeedCellNodesFromMembers(*tree_, lattice_, cuboid,
                                                member_lists[m]);
          if (!nodes.has_value()) {
            seeded = false;  // a member newer than the tree: fall back
            break;
          }
          added_bytes += index->Insert(*tree_, missing[m], std::move(*nodes));
        }
      }
      if (!seeded) {
        *index = BuildCuboidMemberIndex(*tree_, lattice_, cuboid);
        index_full_[static_cast<size_t>(cuboid)] = 1;
        added_bytes = index->MemoryBytes() -
                      index_bytes_by_cuboid_[static_cast<size_t>(cuboid)];
      }
    }
    if (added_bytes != 0) {
      built_index_bytes[static_cast<size_t>(i)] = added_bytes;
      index_bytes_by_cuboid_[static_cast<size_t>(cuboid)] += added_bytes;
    }
    recomputed[static_cast<size_t>(i)] =
        RecomputeCellsFromIndex(*tree_, *index, touched);
  };
  ParallelForOrSerial(pool, static_cast<std::int64_t>(cuboids.size()),
                      patch_one);
  for (std::int64_t b : built_index_bytes) index_bytes_ += b;

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
  for (size_t i = 0; i < cuboids.size(); ++i) {
    const CuboidId cuboid = cuboids[i];
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

Result<std::shared_ptr<const RegressionCube>>
IncrementalCubeCache::RebuildLocked(
    const std::shared_ptr<const SnapshotCells>& run, std::uint64_t revision,
    int level, int k, ThreadPool* pool) {
  auto window = SnapshotWindowOf(*run, level, k);
  if (!window.ok()) return window.status();
  auto cube = ComputeCubeFromWindow(schema_, *window, options_, pool);
  if (!cube.ok()) return cube.status();

  window_ = std::move(*window);
  run_ = run;
  run_frame_bytes_ = 0;
  for (const CellSnapshot& cell : *run) {
    run_frame_bytes_ += cell.frame->MemoryBytes();
  }
  revision_ = revision;
  level_ = level;
  k_ = k;
  tree_.reset();
  indexes_.clear();
  index_full_.clear();
  index_bytes_by_cuboid_.clear();
  index_seed_budget_.clear();
  tree_bytes_ = 0;
  index_bytes_ = 0;
  InstallCubeLocked(std::make_shared<RegressionCube>(std::move(*cube)));
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

bool IncrementalCubeCache::WouldEvictDifferentWindow(int level,
                                                     int k) const {
  std::lock_guard<std::mutex> lock(mu_);
  return valid_ && (level != level_ || k != k_);
}

Result<std::shared_ptr<const RegressionCube>> IncrementalCubeCache::CubeFor(
    std::shared_ptr<const SnapshotCells> run, std::uint64_t revision,
    int level, int k, ThreadPool* pool) {
  RC_CHECK(run != nullptr);
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
    switch (DiffLocked(*run, level, k, &changed, &frame_bytes_delta)) {
      case DiffVerdict::kClean:
        // The writes since the memo touched only open slots; the sealed
        // windows (and therefore the cube) are untouched.
        stats_.revalidations += 1;
        revision_ = revision;
        run_ = std::move(run);
        run_frame_bytes_ += frame_bytes_delta;
        AccountLocked();
        return HandOutLocked();
      case DiffVerdict::kPatch: {
        // Popular-path cubes keep subtree measures in non-leaf nodes and
        // derive their exception subset from drill reachability; the patch
        // replays only the m/o kernel, so they rebuild instead.
        if (options_.algorithm != StreamCubeEngine::Algorithm::kMoCubing) {
          break;
        }
        Status patched = ApplyPatchLocked(changed, pool);
        if (patched.ok()) {
          revision_ = revision;
          run_ = std::move(run);
          run_frame_bytes_ += frame_bytes_delta;
          AccountLocked();
          return HandOutLocked();
        }
        break;  // fall back to the from-scratch kernel
      }
      case DiffVerdict::kRebuild:
        break;
    }
  }
  return RebuildLocked(run, revision, level, k, pool);
}

}  // namespace regcube
