#include "regcube/core/stream_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "regcube/core/snapshot_reads.h"
#include "regcube/common/logging.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/common/str.h"
#include "regcube/io/cube_io.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

namespace {
// The ingest-maintained per-cuboid member index (see MemberIndex).
constexpr char kMemberIndexCategory[] = "index.members";
// Resident per-cell state (keys, map overhead, tilt frames).
constexpr char kTiltFramesCategory[] = "stream.tilt_frames";
// The retained published run's entry vector (the frames it points at are
// the cells' own, counted under stream.tilt_frames). Same category as the
// sharded engine's merged run — both are gather-cache state.
constexpr char kGatherCacheCategory[] = "snapshot.gather_cache";
// Estimated unordered_map node overhead per cell, matching the historical
// MemoryBytes formula.
constexpr std::int64_t kMapEntryOverhead = 16;
}  // namespace

StreamCubeEngine::StreamCubeEngine(std::shared_ptr<const CubeSchema> schema,
                                   Options options)
    : schema_(std::move(schema)),
      lattice_(*schema_),
      options_(std::move(options)),
      now_(options_.start_tick),
      aligned_now_(options_.start_tick),
      member_index_(&lattice_) {
  RC_CHECK(schema_ != nullptr);
  RC_CHECK(options_.tilt_policy != nullptr);
}

void StreamCubeEngine::MarkDirty(const CellKey& key, CellState& state) {
  // Queue the cell for the next export's patch pass at most once; while it
  // is queued, further writes change nothing the export needs to know.
  if (!state.queued) {
    dirty_cells_.push_back({key, &state});
    state.queued = true;
  }
  state.last_modified = ++revision_;
}

StreamCubeEngine::CellState& StreamCubeEngine::CellFor(const CellKey& key) {
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    it = cells_
             .emplace(key, CellState(std::make_shared<TiltTimeFrame>(
                               options_.tilt_policy, options_.start_tick)))
             .first;
    // Creation is observable (num_cells, window errors) even if the first
    // Add is rejected.
    it->second.last_modified = ++revision_;
    dirty_cells_.push_back({key, &it->second});
    it->second.queued = true;
    // The index half of creation: the new cell gets the next dense id and
    // is folded into every active cuboid map — membership is fixed at
    // birth (keys never change, cells are never erased), so this is the
    // only write the member index ever needs.
    const auto id = static_cast<MemberIndex::MemberId>(cells_by_id_.size());
    cells_by_id_.push_back({key, &it->second});
    member_index_.AddCell(key, id);
    AccountMemberIndex();
    AccountCell(it->second);
  }
  return it->second;
}

void StreamCubeEngine::AccountCell(CellState& state) {
  const std::int64_t bytes =
      static_cast<std::int64_t>(sizeof(CellKey)) + kMapEntryOverhead +
      (state.frame != nullptr ? state.frame->MemoryBytes() : 0);
  const std::int64_t delta = bytes - state.tracked_bytes;
  if (delta == 0) return;
  frame_bytes_ += delta;
  if (tracker_ != nullptr) {
    if (delta > 0) {
      tracker_->Add(kTiltFramesCategory, delta);
    } else {
      tracker_->Release(kTiltFramesCategory, -delta);
    }
  }
  state.tracked_bytes = bytes;
}

Result<const TiltTimeFrame*> StreamCubeEngine::LiveFrame(CellState& state,
                                                         GatherStats* stats) {
  if (state.frame != nullptr) return state.frame.get();
  // Fault-in. A failed read (injected fault, lost mapping) leaves the cell
  // spilled and its ref intact: the typed error propagates to whatever
  // query or ingest touched the cell, and the next touch retries — never
  // an abort, never a partially-restored frame.
  if (store_ == nullptr) {
    return Status::Internal("spilled cell without a frame store");
  }
  auto frame = store_->ReadFrame(state.spill, options_.tilt_policy);
  if (!frame.ok()) return frame.status();
  state.frame = std::make_shared<TiltTimeFrame>(*std::move(frame));
  if (stats != nullptr) {
    ++stats->fault_ins;
    stats->fault_in_bytes += state.spill.size;
  }
  store_->Release(state.spill);
  state.spill = BlockRef{};
  --spilled_cells_;
  AccountCell(state);
  return state.frame.get();
}

Result<TiltTimeFrame*> StreamCubeEngine::WritableFrame(CellState& state) {
  RC_RETURN_IF_ERROR(LiveFrame(state).status());
  if (state.shared) {
    // A published run (and any reader holding it) sees this object: write
    // to a private copy, and the next publish shares that one. The copy
    // shares the slot block until it seals (TiltTimeFrame::CopyForWrite).
    state.frame = std::make_shared<TiltTimeFrame>(state.frame->CopyForWrite());
    state.shared = false;
  }
  return state.frame.get();
}

Result<const TiltTimeFrame*> StreamCubeEngine::LiveAlignedFrame(
    const CellKey& key, CellState& state) {
  RC_RETURN_IF_ERROR(LiveFrame(state).status());
  AlignCellToClock(key, state, now_);  // may swap in a clone
  return state.frame.get();
}

void StreamCubeEngine::EnsureIndexed(CuboidId cuboid) {
  if (member_index_.active(cuboid)) return;
  member_index_.Activate(cuboid);
  for (size_t id = 0; id < cells_by_id_.size(); ++id) {
    member_index_.AddCellTo(cuboid, cells_by_id_[id].first,
                            static_cast<MemberIndex::MemberId>(id));
  }
  AccountMemberIndex();
}

void StreamCubeEngine::AccountMemberIndex() {
  // Register only the delta: this runs on every cell creation, so a
  // release-all/re-add cycle would double the tracker traffic for a
  // 16-byte growth.
  const std::int64_t bytes = MemberIndexBytes();
  const std::int64_t delta = bytes - member_index_tracked_;
  if (tracker_ != nullptr && delta != 0) {
    if (delta > 0) {
      tracker_->Add(kMemberIndexCategory, delta);
    } else {
      tracker_->Release(kMemberIndexCategory, -delta);
    }
  }
  member_index_tracked_ = bytes;
}

std::vector<std::pair<const CellKey*, StreamCubeEngine::CellState*>>
StreamCubeEngine::MembersInCanonicalOrder(CuboidId cuboid,
                                          const CellKey& key) {
  EnsureIndexed(cuboid);
  std::vector<std::pair<const CellKey*, CellState*>> members;
  const auto* ids = member_index_.MembersOf(cuboid, key);
  if (ids == nullptr) return members;
  members.reserve(ids->size());
  for (const MemberIndex::MemberId id : *ids) {
    auto& [m_key, state] = cells_by_id_[id];
    members.push_back({&m_key, state});
  }
  std::sort(members.begin(), members.end(),
            [](const auto& a, const auto& b) {
              return CanonicalKeyLess(*a.first, *b.first);
            });
  return members;
}

Status StreamCubeEngine::Ingest(const StreamTuple& tuple) {
  const CellKey key =
      options_.key_mapper ? options_.key_mapper(tuple.key) : tuple.key;
  CellState& state = CellFor(key);
  RC_ASSIGN_OR_RETURN(TiltTimeFrame * frame, WritableFrame(state));
  // Catch up to the last seal first: a frame left behind it (shared during
  // a no-op seal, spilled, or created since) refuses a tick that seal
  // closed, exactly like a frame the seal advanced in place.
  AlignCellToClock(key, state, aligned_now_);
  RC_RETURN_IF_ERROR(frame->Add(tuple.tick, tuple.value));
  MarkDirty(key, state);
  AccountCell(state);
  now_ = std::max(now_, tuple.tick);
  return Status::OK();
}

IngestReport StreamCubeEngine::IngestBatch(
    std::span<const StreamTuple> tuples) {
  IngestReport report;
  report.attempted = static_cast<std::int64_t>(tuples.size());
  for (const StreamTuple& t : tuples) {
    Status s = Ingest(t);
    if (!s.ok()) {
      report.status = std::move(s);
      return report;
    }
    ++report.absorbed;
  }
  return report;
}

Status StreamCubeEngine::SealThrough(TimeTick t) {
  now_ = std::max(now_, t + 1);
  AlignFrames();
  return Status::OK();
}

void StreamCubeEngine::AlignFrames() {
  aligned_now_ = now_;
  for (auto& [key, state] : cells_) {
    AlignCellToClock(key, state, now_);
  }
}

void StreamCubeEngine::AlignCellToClock(const CellKey& key, CellState& state,
                                        TimeTick t) {
  // Spilled: alignment is deferred to fault-in. AdvanceTo over the skipped
  // ticks is deterministic (missing ticks contribute zero), so the late
  // advance yields bit-identical slots — and a seal sweep never has to
  // touch the cold tier.
  if (state.frame == nullptr) return;
  const TimeTick from = state.frame->next_tick();
  if (from >= t) return;
  // Only an advance that sealed a slot changes what any read can see;
  // moving next_tick within an open unit leaves every slot untouched, so
  // the published frame (and any revision-memoized snapshot) stays valid
  // and a shared frame is not worth a clone.
  const bool seals = options_.tilt_policy->AnyUnitEndIn(from, t);
  if (state.shared && !seals) return;
  auto frame = WritableFrame(state);
  RC_CHECK(frame.ok()) << frame.status().ToString();  // resident: no I/O
  Status s = (*frame)->AdvanceTo(t);
  RC_CHECK(s.ok()) << s.ToString();
  AccountCell(state);
  if (seals) MarkDirty(key, state);
}

Result<std::vector<MLayerTuple>> StreamCubeEngine::SnapshotWindow(int level,
                                                                  int k) {
  if (cells_.empty()) {
    return Status::FailedPrecondition("no stream data ingested yet");
  }
  AlignFrames();
  std::vector<MLayerTuple> tuples;
  tuples.reserve(cells_.size());
  for (auto& [key, state] : cells_) {
    RC_ASSIGN_OR_RETURN(const TiltTimeFrame* frame,
                        LiveAlignedFrame(key, state));
    auto isb = frame->RegressLastSlots(level, k);
    if (!isb.ok()) return isb.status();
    tuples.push_back(MLayerTuple{key, *isb});
  }
  return tuples;
}

Result<RegressionCube> StreamCubeEngine::ComputeCube(int level, int k) {
  auto tuples = SnapshotWindow(level, k);
  if (!tuples.ok()) return tuples.status();
  return ComputeCubeFromWindow(schema_, *tuples, options_);
}

Result<RegressionCube> ComputeCubeFromWindow(
    std::shared_ptr<const CubeSchema> schema,
    const std::vector<MLayerTuple>& tuples,
    const StreamCubeEngine::Options& options, ThreadPool* pool) {
  if (options.algorithm == StreamCubeEngine::Algorithm::kMoCubing) {
    MoCubingOptions mo;
    mo.policy = options.policy;
    mo.pool = pool;
    return ComputeMoCubing(std::move(schema), tuples, mo);
  }
  PopularPathOptions pp;
  pp.policy = options.policy;
  pp.path = options.path;
  pp.pool = pool;
  return ComputePopularPathCubing(std::move(schema), tuples, pp);
}

Result<StreamCubeEngine::DeckSeries> StreamCubeEngine::ObservationDeck(
    int level) {
  if (cells_.empty()) {
    return Status::FailedPrecondition("no stream data ingested yet");
  }
  AlignFrames();
  // Per o-layer cell, per slot index: moment sums across member frames
  // (Theorem 3.2 applied slot-wise in moment space).
  std::unordered_map<CellKey, std::vector<MomentSums>, CellKeyHash> acc;
  const CuboidId o_id = lattice_.o_layer_id();
  for (auto& [key, state] : cells_) {
    const CellKey o_key = lattice_.ProjectMLayerKey(key, o_id);
    RC_ASSIGN_OR_RETURN(const TiltTimeFrame* frame,
                        LiveAlignedFrame(key, state));
    const auto& slots = frame->RawSlots(level);
    auto& dest = acc[o_key];
    if (dest.size() < slots.size()) dest.resize(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      if (dest[i].interval.empty()) {
        dest[i] = slots[i];
      } else {
        RC_CHECK(dest[i].interval == slots[i].interval)
            << "frames misaligned at slot " << i;
        dest[i].sum_z += slots[i].sum_z;
        dest[i].sum_tz += slots[i].sum_tz;
      }
    }
  }
  DeckSeries deck;
  deck.reserve(acc.size());
  for (auto& [key, moments] : acc) {
    std::vector<Isb> series;
    series.reserve(moments.size());
    for (const MomentSums& m : moments) series.push_back(FitFromMoments(m));
    deck.emplace(key, std::move(series));
  }
  return deck;
}

Result<std::vector<StreamCubeEngine::TrendChange>>
StreamCubeEngine::DetectTrendChanges(int level, double threshold) {
  auto deck = ObservationDeck(level);
  if (!deck.ok()) return deck.status();
  std::vector<TrendChange> changes;
  for (const auto& [key, series] : *deck) {
    if (series.size() < 2) continue;
    const Isb& prev = series[series.size() - 2];
    const Isb& cur = series[series.size() - 1];
    const double delta = std::abs(cur.slope - prev.slope);
    if (delta >= threshold) {
      changes.push_back(TrendChange{key, prev, cur, delta});
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const TrendChange& a, const TrendChange& b) {
              if (a.slope_delta != b.slope_delta) {
                return a.slope_delta > b.slope_delta;
              }
              return CanonicalKeyLess(a.key, b.key);  // deterministic ties
            });
  return changes;
}

Result<Isb> StreamCubeEngine::QueryCell(CuboidId cuboid, const CellKey& key,
                                        int level, int k) {
  RC_RETURN_IF_ERROR(ValidatePointQueryTarget(
      lattice_, cuboid, level, options_.tilt_policy->num_levels()));
  if (cells_.empty()) return SnapshotNoDataError();
  // Index probe instead of a cell scan: only the matching members are
  // touched (aligned, regressed, folded), in canonical key order — the
  // same operand order the sharded/snapshot kernels use.
  auto members = MembersInCanonicalOrder(cuboid, key);
  if (members.empty()) {
    return SnapshotNoMembersError(lattice_, cuboid, key);
  }
  Isb acc;
  for (auto& [m_key, state] : members) {
    RC_ASSIGN_OR_RETURN(const TiltTimeFrame* frame,
                        LiveAlignedFrame(*m_key, *state));
    auto isb = frame->RegressLastSlots(level, k);
    if (!isb.ok()) return isb.status();
    AccumulateStandardDim(acc, *isb);
  }
  return acc;
}

Result<std::vector<Isb>> StreamCubeEngine::QueryCellSeries(
    CuboidId cuboid, const CellKey& key, int level) {
  RC_RETURN_IF_ERROR(ValidatePointQueryTarget(
      lattice_, cuboid, level, options_.tilt_policy->num_levels()));
  if (cells_.empty()) return SnapshotNoDataError();
  auto members = MembersInCanonicalOrder(cuboid, key);
  if (members.empty()) {
    return SnapshotNoMembersError(lattice_, cuboid, key);
  }
  std::vector<MomentSums> acc;
  for (auto& [m_key, state] : members) {
    RC_ASSIGN_OR_RETURN(const TiltTimeFrame* frame,
                        LiveAlignedFrame(*m_key, *state));
    const auto& slots = frame->RawSlots(level);
    if (acc.size() < slots.size()) acc.resize(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      if (acc[i].interval.empty()) {
        acc[i] = slots[i];
      } else {
        RC_CHECK(acc[i].interval == slots[i].interval);
        acc[i].sum_z += slots[i].sum_z;
        acc[i].sum_tz += slots[i].sum_tz;
      }
    }
  }
  std::vector<Isb> series;
  series.reserve(acc.size());
  for (const MomentSums& m : acc) series.push_back(FitFromMoments(m));
  return series;
}

void StreamCubeEngine::set_memory_tracker(MemoryTracker* tracker) {
  // Hand the registered bytes from the old tracker to the new one, so
  // detach / re-attach keeps every tracker balanced.
  if (tracker_ != nullptr) {
    if (member_index_tracked_ > 0) {
      tracker_->Release(kMemberIndexCategory, member_index_tracked_);
    }
    if (frame_bytes_ > 0) tracker_->Release(kTiltFramesCategory, frame_bytes_);
    if (published_run_bytes_ > 0) {
      tracker_->Release(kGatherCacheCategory, published_run_bytes_);
    }
  }
  if (tracker != nullptr) {
    if (member_index_tracked_ > 0) {
      tracker->Add(kMemberIndexCategory, member_index_tracked_);
    }
    if (frame_bytes_ > 0) tracker->Add(kTiltFramesCategory, frame_bytes_);
    if (published_run_bytes_ > 0) {
      tracker->Add(kGatherCacheCategory, published_run_bytes_);
    }
  }
  tracker_ = tracker;
}

void StreamCubeEngine::set_frame_store(FrameStore* store, int shard_index) {
  store_ = store;
  shard_index_ = shard_index;
}

Result<std::shared_ptr<const TiltTimeFrame>> StreamCubeEngine::SharedFrame(
    CellState& state, GatherStats* stats) {
  RC_RETURN_IF_ERROR(LiveFrame(state, stats).status());
  state.shared = true;
  return std::shared_ptr<const TiltTimeFrame>(state.frame);
}

Status StreamCubeEngine::RefreshPublishedRun(FrozenSlice* out,
                                             GatherStats* stats) {
  if (stats != nullptr) stats->cells += num_cells();
  if (published_run_ != nullptr && revision_ == export_revision_) {
    // No observable change since the run was built: hand it back as-is.
    if (stats != nullptr) ++stats->shards_reused;
    *out = published_run_;
    return Status::OK();
  }
  if (published_run_ == nullptr) {
    // No retained run (first refresh, or the run was dropped by a ladder
    // rung / CleanDirtyCells): full sorted export.
    auto full = std::make_shared<std::vector<CellSnapshot>>();
    full->reserve(cells_.size());
    for (auto& [key, state] : cells_) {
      auto frame = SharedFrame(state, stats);
      if (!frame.ok()) return frame.status();
      full->push_back({key, *std::move(frame)});
    }
    std::sort(full->begin(), full->end(), CellSnapshotCanonicalLess);
    published_run_ = std::move(full);
  } else {
    // Patch refresh: share only the dirty cells' frames, then splice them
    // over a pointer-copy of the previous run in one tandem merge — O(changed
    // cells) frame work, O(cells) pointer moves. (The only revision bump
    // that skips the dirty list is RestoreCell, which requires an empty —
    // and therefore runless — engine, so an empty dirty list here really
    // does mean only no-op changes.)
    std::vector<CellSnapshot> patches;
    patches.reserve(dirty_cells_.size());
    for (auto& [key, state] : dirty_cells_) {
      auto frame = SharedFrame(*state, stats);
      if (!frame.ok()) {
        // Leave the dirty list, the run, and the export revision
        // untouched: the next refresh retries exactly this work.
        return frame.status();
      }
      patches.push_back({key, *std::move(frame)});
    }
    std::sort(patches.begin(), patches.end(), CellSnapshotCanonicalLess);
    auto next = std::make_shared<std::vector<CellSnapshot>>();
    next->reserve(published_run_->size() + patches.size());
    auto base_it = published_run_->begin();
    for (CellSnapshot& patch : patches) {
      while (base_it != published_run_->end() &&
             CanonicalKeyLess(base_it->key, patch.key)) {
        next->push_back(*base_it++);
      }
      if (base_it != published_run_->end() && base_it->key == patch.key) {
        ++base_it;  // replaced by the patch
      }
      next->push_back(std::move(patch));
    }
    next->insert(next->end(), base_it, published_run_->end());
    published_run_ = std::move(next);
  }
  for (auto& entry : dirty_cells_) entry.second->queued = false;
  dirty_cells_.clear();
  export_revision_ = revision_;
  AccountPublishedRun();
  *out = published_run_;
  return Status::OK();
}

std::int64_t StreamCubeEngine::DropPublishedRun() {
  if (published_run_ == nullptr) return 0;
  const std::int64_t freed = published_run_bytes_;
  published_run_ = nullptr;
  AccountPublishedRun();
  return freed;
}

void StreamCubeEngine::AccountPublishedRun() {
  const std::int64_t bytes =
      published_run_ != nullptr
          ? static_cast<std::int64_t>(published_run_->size() *
                                      sizeof(CellSnapshot))
          : 0;
  const std::int64_t delta = bytes - published_run_bytes_;
  if (delta != 0 && tracker_ != nullptr) {
    if (delta > 0) {
      tracker_->Add(kGatherCacheCategory, delta);
    } else {
      tracker_->Release(kGatherCacheCategory, -delta);
    }
  }
  published_run_bytes_ = bytes;
}

Status StreamCubeEngine::ExportCellsFull(std::vector<CellSnapshot>* out,
                                         GatherStats* stats) {
  out->reserve(out->size() + cells_.size());
  for (auto& [key, state] : cells_) {
    RC_ASSIGN_OR_RETURN(const TiltTimeFrame* live, LiveFrame(state, stats));
    auto block = std::make_shared<const TiltTimeFrame>(*live);
    if (stats != nullptr) {
      ++stats->materialized;
      stats->bytes_copied += block->MemoryBytes();
    }
    out->push_back({key, std::move(block)});
  }
  if (stats != nullptr) stats->cells += num_cells();
  return Status::OK();
}

Status StreamCubeEngine::ExportMatchingCells(CuboidId cuboid,
                                             const CellKey& key,
                                             std::vector<CellSnapshot>* out) {
  for (auto& [m_key, state] : cells_) {
    if (!(lattice_.ProjectMLayerKey(m_key, cuboid) == key)) continue;
    RC_ASSIGN_OR_RETURN(std::shared_ptr<const TiltTimeFrame> frame,
                        SharedFrame(state, /*stats=*/nullptr));
    out->push_back({m_key, std::move(frame)});
  }
  return Status::OK();
}

void StreamCubeEngine::AppendMemberKeys(CuboidId cuboid, const CellKey& key,
                                        std::vector<CellKey>* out) {
  EnsureIndexed(cuboid);
  const auto* ids = member_index_.MembersOf(cuboid, key);
  if (ids == nullptr) return;
  out->reserve(out->size() + ids->size());
  for (const MemberIndex::MemberId id : *ids) {
    out->push_back(cells_by_id_[id].first);
  }
}

StreamCubeEngine::SpillSweep StreamCubeEngine::SpillColdFrames(
    std::int64_t target_bytes) {
  SpillSweep sweep;
  if (store_ == nullptr || target_bytes <= 0) return sweep;
  // Cold-first: resident cells that are clean (not queued for the next
  // export — a dirty cell would be faulted straight back in), least
  // recently modified first.
  std::vector<CellState*> candidates;
  candidates.reserve(cells_.size());
  for (auto& [key, state] : cells_) {
    if (state.frame == nullptr || state.queued) continue;
    candidates.push_back(&state);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const CellState* a, const CellState* b) {
              return a->last_modified < b->last_modified;
            });
  for (CellState* state : candidates) {
    if (sweep.bytes >= target_bytes) break;
    // Bounded retry with a short backoff: a transiently failing disk
    // (injected fault, momentary ENOSPC) gets a few more chances before
    // the sweep gives up and leaves everything resident. Either way no
    // state is lost — a cell spills only after its append succeeded.
    constexpr int kMaxAttempts = 3;
    Result<BlockRef> ref = Status::Internal("unset");
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      if (attempt > 0) {
        ++spill_retries_;
        std::this_thread::sleep_for(
            std::chrono::microseconds(50ll << attempt));
      }
      ref = store_->AppendFrame(shard_index_, *state->frame);
      if (ref.ok() || ref.status().code() != StatusCode::kUnavailable) {
        break;  // success, or an error a retry cannot fix
      }
    }
    if (!ref.ok()) {
      // Disk trouble even after retries: count it, stop the sweep, leave
      // the rest resident.
      ++spill_io_errors_;
      break;
    }
    sweep.bytes += state->frame->MemoryBytes();
    state->frame.reset();  // a run that shares the frame keeps it alive
    state->shared = false;
    state->spill = *ref;
    ++spilled_cells_;
    ++sweep.cells;
    AccountCell(*state);
  }
  return sweep;
}

std::int64_t StreamCubeEngine::CleanDirtyCells() {
  if (dirty_cells_.empty()) return 0;
  const std::int64_t cleaned =
      static_cast<std::int64_t>(dirty_cells_.size());
  for (auto& entry : dirty_cells_) entry.second->queued = false;
  dirty_cells_.clear();
  // Nobody exported the skipped patches, so the retained run must not
  // pass for fresh at this revision: drop it, and the next refresh
  // re-exports in full — correctness is preserved, only the delta
  // shortcut is forfeited.
  export_revision_ = revision_;
  DropPublishedRun();
  return cleaned;
}

void StreamCubeEngine::RepointSpilledBlocks(
    const std::vector<FrameStore::Relocation>& relocations) {
  if (relocations.empty()) return;
  // A compaction rewrites exactly one segment, so every relocation names
  // the same source file.
  const std::int32_t from_file = relocations.front().from.file;
  std::unordered_map<std::int64_t, BlockRef> moved;
  moved.reserve(relocations.size());
  for (const FrameStore::Relocation& r : relocations) {
    moved[r.from.offset] = r.to;
  }
  for (auto& [key, state] : cells_) {
    if (state.frame != nullptr || state.spill.file != from_file) continue;
    auto it = moved.find(state.spill.offset);
    if (it != moved.end()) state.spill = it->second;
  }
}

Status StreamCubeEngine::RestoreCell(const CellKey& key, const BlockRef& ref) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "RestoreCell requires an attached frame store");
  }
  if (!ref.valid()) {
    return Status::InvalidArgument("invalid block ref for restored cell");
  }
  if (cells_.find(key) != cells_.end()) {
    return Status::InvalidArgument("duplicate cell key in checkpoint");
  }
  auto it = cells_.emplace(key, CellState(nullptr)).first;
  CellState& state = it->second;
  state.spill = ref;
  // Creation is observable; the cell is NOT dirty-queued — a restored
  // engine has no gather base, so its first export is a full one and picks
  // the cell up there (faulting it in from the checkpoint mapping).
  state.last_modified = ++revision_;
  const auto id = static_cast<MemberIndex::MemberId>(cells_by_id_.size());
  cells_by_id_.push_back({it->first, &state});
  member_index_.AddCell(key, id);
  AccountMemberIndex();
  ++spilled_cells_;
  AccountCell(state);
  return Status::OK();
}

Result<std::string> StreamCubeEngine::EncodeCheckpointShard(
    int shard) const {
  std::size_t block_bytes = 0;
  for (const auto& [key, state] : cells_) {
    block_bytes += state.frame != nullptr
                       ? state.frame->BlockSize()
                       : static_cast<std::size_t>(state.spill.size);
  }
  CheckpointShardWriter writer(shard, cells_.size(), block_bytes);
  for (const auto& [key, state] : cells_) {
    if (state.frame != nullptr) {
      writer.AddFrame(key, *state.frame);
    } else {
      // Cold cells are copied block-to-block — no decode/re-encode, no
      // fault-in: checkpointing a mostly-cold engine stays cheap.
      RC_RETURN_IF_ERROR(writer.AddStoredBlock(key, *store_, state.spill));
    }
  }
  return std::move(writer).Finish();
}

}  // namespace regcube
