#include "regcube/core/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/common/str.h"
#include "regcube/io/binary_io.h"

namespace regcube {

namespace {
// The whole-engine merged gather run, reported through MemoryTracker as
// the run's own entry footprint. Most frames it points at are the cells'
// own, counted under "stream.tilt_frames"; frames re-materialized by clock
// alignment, or replaced by a writer's clone since, live only in the run
// (and any snapshots holding it) and are not individually tracked — the
// accounting is analytic, not exhaustive.
constexpr char kGatherCacheCategory[] = "snapshot.gather_cache";

// The per-shard ingest queues' preallocated ring slots (async mode only).
// Analytic like the rest: capacity * sizeof(StreamTuple) per shard, fixed
// for the engine's lifetime; heap storage retained by queued keys varies
// per tuple and is not tracked.
constexpr char kIngestQueueCategory[] = "ingest.queue";

std::int64_t SliceBytes(const SnapshotCells& cells) {
  return static_cast<std::int64_t>(cells.size() * sizeof(CellSnapshot));
}

// Re-entrancy guard for the export.dirty ladder rung: set while the rung
// runs, so that if any path it takes ever reaches MaybeEnforceBudget on
// the same thread, the enforcement skips instead of try_locking the
// governor's enforce mutex on the thread that already holds it (undefined
// behavior, not just a deadlock). The rung's current body (clean dirty
// queues + spill sweep) never re-enters, so this is pure defense.
thread_local bool tl_in_budget_rung = false;

struct ScopedFlag {
  explicit ScopedFlag(bool& flag) : flag_(flag) { flag_ = true; }
  ~ScopedFlag() { flag_ = false; }
  bool& flag_;
};

/// Re-materializes one shared frame iff a tilt unit ends between its
/// next tick and `target` — otherwise advancing it would seal nothing
/// and the frame is shared as-is. Returns the bytes retained by the new
/// copy (0 when shared). The single sharing condition every realignment
/// path goes through.
std::int64_t RealignCellToClock(CellSnapshot& cell, TimeTick target,
                                const TiltPolicy& policy) {
  const TimeTick from = cell.frame->next_tick();
  if (from >= target || !policy.AnyUnitEndIn(from, target)) return 0;
  auto advanced = std::make_shared<TiltTimeFrame>(*cell.frame);
  Status s = advanced->AdvanceTo(target);
  RC_CHECK(s.ok()) << s.ToString();
  const std::int64_t bytes = advanced->MemoryBytes();
  cell.frame = std::move(advanced);
  return bytes;
}

/// Aligns every frame in `cells` to `target` (copy-on-write per frame via
/// RealignCellToClock). Parallel across `pool` when available — the
/// O(all cells) half of boundary rounds and the full-gather baseline.
void AlignRunToClock(std::vector<CellSnapshot>& cells, TimeTick target,
                     const TiltPolicy& policy, ThreadPool* pool,
                     GatherStats* stats) {
  std::atomic<std::int64_t> materialized{0};
  std::atomic<std::int64_t> bytes{0};
  auto align_one = [&](std::int64_t idx) {
    const std::int64_t copied = RealignCellToClock(
        cells[static_cast<size_t>(idx)], target, policy);
    if (copied > 0) {
      materialized.fetch_add(1, std::memory_order_relaxed);
      bytes.fetch_add(copied, std::memory_order_relaxed);
    }
  };
  ParallelForOrSerial(pool, static_cast<std::int64_t>(cells.size()),
                      align_one);
  if (stats != nullptr) {
    stats->materialized += materialized.load(std::memory_order_relaxed);
    stats->bytes_copied += bytes.load(std::memory_order_relaxed);
  }
}
}  // namespace

ShardedStreamEngine::ShardedStreamEngine(
    std::shared_ptr<const CubeSchema> schema, Options options, int num_shards,
    std::shared_ptr<ThreadPool> pool, IngestConfig ingest)
    : schema_(std::move(schema)),
      lattice_(*schema_),
      options_(std::move(options)),
      ingest_(ingest),
      mapper_(std::move(options_.key_mapper)),
      pool_(std::move(pool)),
      clock_(options_.start_tick) {
  RC_CHECK(schema_ != nullptr);
  RC_CHECK(options_.tilt_policy != nullptr);
  RC_CHECK(num_shards >= 1) << "num_shards must be >= 1, got " << num_shards;
  options_.key_mapper = nullptr;  // applied here, before shard hashing
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(schema_, options_));
  }
  cube_memo_ = std::make_unique<IncrementalCubeCache>(schema_, options_);
  // Patches seed their per-cuboid node indexes from the ingest-maintained
  // member index instead of chain-scanning the memoized tree. The memo is
  // owned by this engine, so the raw `this` capture cannot dangle.
  cube_memo_->set_member_lookup(
      [this](CuboidId cuboid, const std::vector<CellKey>& keys) {
        return MemberKeysForBatch(cuboid, keys);
      });
  if (ingest_.mode == IngestMode::kAsync) {
    RC_CHECK(ingest_.queue_capacity >= 1)
        << "ingest queue capacity must be >= 1, got "
        << ingest_.queue_capacity;
    queues_.reserve(static_cast<size_t>(num_shards));
    writers_.reserve(static_cast<size_t>(num_shards));
    for (int i = 0; i < num_shards; ++i) {
      queues_.push_back(std::make_unique<IngestQueue>(ingest_.queue_capacity,
                                                      ingest_.backpressure));
    }
    // Writers start only after every queue exists: an owner thread's
    // absorb callback touches shards_ and the counters, all built above.
    // The post-batch hook is the async-mode budget enforcement point: it
    // runs after the batch is acknowledged (Flush waiters are already
    // unblocked) and is a no-op until ConfigureStorage installs a
    // governor.
    for (int i = 0; i < num_shards; ++i) {
      const size_t shard_index = static_cast<size_t>(i);
      writers_.push_back(std::make_unique<ShardWriter>(
          queues_[shard_index].get(),
          [this, shard_index](const std::vector<StreamTuple>& batch) {
            IngestReport report = AbsorbIntoShard(shard_index, batch);
            return ShardWriter::AbsorbResult{report.absorbed,
                                             std::move(report.status)};
          },
          [this] { MaybeEnforceBudget(); }));
    }
  }
}

int ShardedStreamEngine::ShardIndex(const CellKey& mapped_key) const {
  return static_cast<int>(mapped_key.Hash() % shards_.size());
}

void ShardedStreamEngine::BumpClock(TimeTick t) {
  TimeTick cur = clock_.load(std::memory_order_relaxed);
  while (cur < t &&
         !clock_.compare_exchange_weak(cur, t, std::memory_order_acq_rel)) {
  }
}

void ShardedStreamEngine::set_memory_tracker(MemoryTracker* tracker) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->engine.set_memory_tracker(tracker);
  }
  // Move the cached merged run's and the ingest queues' registrations
  // between trackers, so detach / re-attach keeps every tracker balanced.
  std::lock_guard<std::mutex> lock(gather_mu_);
  const std::int64_t queue_bytes = IngestQueueBytes();
  if (queue_bytes > 0) {
    if (tracker_ != nullptr) {
      tracker_->Release(kIngestQueueCategory, queue_bytes);
    }
    if (tracker != nullptr) tracker->Add(kIngestQueueCategory, queue_bytes);
  }
  if (gather_valid_) {
    const std::int64_t bytes = SliceBytes(*gather_cache_.cells);
    if (tracker_ != nullptr && bytes > 0) {
      tracker_->Release(kGatherCacheCategory, bytes);
    }
    if (tracker != nullptr && bytes > 0) {
      tracker->Add(kGatherCacheCategory, bytes);
    }
  }
  tracker_ = tracker;
  cube_memo_->set_memory_tracker(tracker);
}

std::shared_ptr<const ShardedStreamEngine::ShardPublication>
ShardedStreamEngine::PublicationFor(size_t i, GatherStats* stats,
                                    Status* status) {
  Shard& shard = *shards_[i];
  // Fast path: the published generation reflects every completed write
  // (its revision matches the mirror, and both stores happened inside the
  // mutex before the write completed), so it can be served without ever
  // touching the mutex. A mismatch in either direction just means "take
  // the slow path" — a torn view can never be served fresh.
  auto pub = shard.Published();
  if (pub != nullptr &&
      pub->revision == shard.version.load(std::memory_order_acquire)) {
    if (stats != nullptr) {
      stats->cells += static_cast<std::int64_t>(pub->cells->size());
      ++stats->shards_reused;
    }
    return pub;
  }
  // Slow path (stale generation — any write or seal since the last
  // publish): republish under the shard mutex. Writers never publish, so
  // this is the one publish point for both write modes. On a fault-in
  // failure the old generation stays up (still stale) and the next read
  // retries the refresh.
  std::lock_guard<std::mutex> lock(shard.mu);
  StreamCubeEngine::FrozenSlice run;
  Status s = shard.engine.RefreshPublishedRun(&run, stats);
  if (!s.ok()) {
    *status = std::move(s);
    return nullptr;
  }
  pub = std::make_shared<const ShardPublication>(ShardPublication{
      std::move(run), shard.engine.now(), shard.engine.revision()});
  shard.Publish(pub);
  shard.version.store(pub->revision, std::memory_order_release);
  return pub;
}

void ShardedStreamEngine::MirrorVersionsLocked() {
  for (auto& shard : shards_) {
    shard->version.store(shard->engine.revision(), std::memory_order_release);
  }
}

IngestReport ShardedStreamEngine::AbsorbIntoShard(
    size_t i, std::span<const StreamTuple> tuples) {
  Shard& shard = *shards_[i];
  IngestReport report;
  bool changed;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::uint64_t before = shard.engine.revision();
    report = shard.engine.IngestBatch(tuples);
    changed = shard.engine.revision() != before;
    shard.version.store(shard.engine.revision(), std::memory_order_release);
  }
  // The clock follows what actually landed: the shard engine absorbs a
  // strict prefix of `tuples` (it stops at the first error).
  TimeTick max_tick = 0;
  for (std::int64_t j = 0; j < report.absorbed; ++j) {
    max_tick = std::max(max_tick, tuples[static_cast<size_t>(j)].tick);
  }
  if (report.absorbed > 0) BumpClock(max_tick);
  // The shard engine's revision moves exactly when observable state did
  // (an absorbed tuple, or a rejected one that still created its cell's
  // frame) — mirror that, so snapshot caches are invalidated precisely
  // when they must be and never when nothing changed.
  if (changed) revision_.fetch_add(1, std::memory_order_release);
  return report;
}

std::vector<std::vector<StreamTuple>> ShardedStreamEngine::PartitionByShard(
    const std::vector<StreamTuple>& tuples) const {
  // The key mapper runs before hashing, so a partition holds exactly what
  // its shard engine absorbs (owner threads never touch the mapper).
  std::vector<std::vector<StreamTuple>> partitions(shards_.size());
  for (const StreamTuple& t : tuples) {
    CellKey key = mapper_ ? mapper_(t.key) : t.key;
    const auto i = static_cast<size_t>(ShardIndex(key));
    partitions[i].push_back({std::move(key), t.tick, t.value});
  }
  return partitions;
}

IngestTicket ShardedStreamEngine::IngestAsync(
    const std::vector<StreamTuple>& tuples) {
  RC_CHECK(ingest_.mode == IngestMode::kAsync)
      << "IngestAsync requires IngestMode::kAsync";
  // Budget-exhausted degradation precedes the queues: accepting tuples the
  // owner threads would only pile onto an engine that cannot shed bytes
  // turns overload into unbounded growth. A refused ticket is typed and
  // complete — nothing entered any queue.
  {
    Status admission = CheckIngestAdmission();
    if (!admission.ok()) {
      IngestTicket refused;
      refused.attempted = static_cast<std::int64_t>(tuples.size());
      refused.rejected = refused.attempted;
      refused.status = std::move(admission);
      return refused;
    }
  }
  auto partitions = PartitionByShard(tuples);
  IngestTicket ticket;
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (partitions[i].empty()) continue;
    ticket.Merge(queues_[i]->Enqueue(
        partitions[i].data(),
        static_cast<std::int64_t>(partitions[i].size())));
  }
  return ticket;
}

Status ShardedStreamEngine::Flush() {
  if (ingest_.mode != IngestMode::kAsync) return Status::OK();
  // Snapshot every queue's accept point first, then wait: tuples enqueued
  // by other producers after this line don't extend the wait, so Flush
  // terminates under sustained concurrent ingest.
  std::vector<std::uint64_t> targets(queues_.size());
  for (size_t i = 0; i < queues_.size(); ++i) {
    targets[i] = queues_[i]->enqueued_seq();
  }
  for (size_t i = 0; i < queues_.size(); ++i) {
    queues_[i]->WaitResolved(targets[i]);
  }
  Status first;
  for (auto& queue : queues_) {
    Status s = queue->TakeFirstError();
    if (first.ok() && !s.ok()) first = std::move(s);
  }
  return first;
}

regcube::IngestStats ShardedStreamEngine::IngestStats() const {
  regcube::IngestStats out;
  out.mode = ingest_.mode;
  out.backpressure = ingest_.backpressure;
  if (ingest_.mode != IngestMode::kAsync) return out;
  out.queue_capacity = ingest_.queue_capacity;
  out.per_shard.reserve(queues_.size());
  for (const auto& queue : queues_) {
    out.per_shard.push_back(queue->Stats());
    out.total.Merge(out.per_shard.back());
  }
  return out;
}

std::int64_t ShardedStreamEngine::IngestQueueBytes() const {
  std::int64_t bytes = 0;
  for (const auto& queue : queues_) bytes += queue->SlotBytes();
  return bytes;
}

Status ShardedStreamEngine::CheckIngestAdmission() {
  // Degraded admission is opt-in through the backpressure policy: kBlock
  // and kDropOldest keep the legacy lossless/lossy semantics (the engine
  // absorbs and stays over budget, best effort); only kReject turns an
  // unreachable budget into typed rejects.
  if (ingest_.backpressure != BackpressurePolicy::kReject) {
    return Status::OK();
  }
  if (governor_ == nullptr || !governor_->exhausted()) return Status::OK();
  // One more chance before degrading: pressure may have dropped since the
  // exhausted run (a reader released a snapshot, a compaction landed), and
  // MaybeEnforce clears the flag the moment usage probes under budget.
  MaybeEnforceBudget();
  if (!governor_->exhausted()) return Status::OK();
  budget_rejects_.fetch_add(1, std::memory_order_relaxed);
  return Status::ResourceExhausted(StrPrintf(
      "memory budget of %lld bytes is unreachable: every eviction rung ran "
      "and usage is still over; ingest degraded to rejects until pressure "
      "drops",
      static_cast<long long>(budget_config_.budget_bytes)));
}

Status ShardedStreamEngine::Ingest(const StreamTuple& tuple) {
  if (ingest_.mode == IngestMode::kAsync) {
    return IngestAsync({tuple}).status;
  }
  RC_RETURN_IF_ERROR(CheckIngestAdmission());
  const StreamTuple mapped{mapper_ ? mapper_(tuple.key) : tuple.key,
                           tuple.tick, tuple.value};
  IngestReport report =
      AbsorbIntoShard(static_cast<size_t>(ShardIndex(mapped.key)),
                      std::span<const StreamTuple>(&mapped, 1));
  MaybeEnforceBudget();
  return std::move(report.status);
}

IngestReport ShardedStreamEngine::IngestBatch(
    const std::vector<StreamTuple>& tuples) {
  if (ingest_.mode == IngestMode::kAsync) {
    // Legacy door in async mode: `absorbed` counts acceptance into the
    // queues, not absorption — IngestAsync's ticket is the precise story.
    const IngestTicket ticket = IngestAsync(tuples);
    IngestReport report;
    report.attempted = ticket.attempted;
    report.absorbed = ticket.enqueued;
    report.status = ticket.status;
    return report;
  }
  IngestReport report;
  report.attempted = static_cast<std::int64_t>(tuples.size());
  {
    Status admission = CheckIngestAdmission();
    if (!admission.ok()) {
      report.status = std::move(admission);
      return report;
    }
  }
  // Shards are fed in index order; earlier shards keep what they absorbed
  // even when a later one fails, and the clock already reflects it.
  const auto partitions = PartitionByShard(tuples);
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (partitions[i].empty()) continue;
    IngestReport shard_report = AbsorbIntoShard(i, partitions[i]);
    report.absorbed += shard_report.absorbed;
    if (!shard_report.ok()) {
      report.status = std::move(shard_report.status);
      break;
    }
  }
  MaybeEnforceBudget();
  return report;
}

std::vector<std::unique_lock<std::mutex>> ShardedStreamEngine::LockAll()
    const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  return locks;
}

Status ShardedStreamEngine::AlignLocked() {
  // The global clock must dominate every shard's local view before the
  // shards are driven to it (a writer may have raced ahead of clock_).
  TimeTick target = clock_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    target = std::max(target, shard->engine.now());
  }
  BumpClock(target);
  // The seal clock, not now(), says whether a shard is aligned: a shard
  // whose writer already reached the target still has cells behind it.
  for (auto& shard : shards_) {
    if (shard->engine.seal_clock() < target) {
      RC_RETURN_IF_ERROR(shard->engine.SealThrough(target - 1));
    }
  }
  return Status::OK();
}

std::uint64_t ShardedStreamEngine::SumShardRevisionsLocked() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->engine.revision();
  return sum;
}

Status ShardedStreamEngine::SealThrough(TimeTick t) {
  // In async mode tuples with ticks <= t may still be in flight in the
  // queues; sealing past them would refuse them as late on absorption.
  // Drain first — and surface any pending absorb error rather than
  // silently sealing over it.
  RC_RETURN_IF_ERROR(Flush());
  auto locks = LockAll();
  const TimeTick clock_before = clock_.load(std::memory_order_acquire);
  BumpClock(t + 1);
  const std::uint64_t before = SumShardRevisionsLocked();
  RC_RETURN_IF_ERROR(AlignLocked());
  // A seal that neither sealed a slot anywhere nor advanced the global
  // clock changes nothing a read can see — re-sealing an already-aligned
  // engine keeps every revision-memoized snapshot valid. A clock advance
  // must move the revision even without a sealed slot, or cached
  // snapshots would keep reporting the pre-seal now(); the refresh is
  // cheap (the next gather patches zero cells).
  if (SumShardRevisionsLocked() != before || t + 1 > clock_before) {
    revision_.fetch_add(1, std::memory_order_release);
  }
  MirrorVersionsLocked();
  locks.clear();
  // Alignment grows frames (rolled-up slots materialize in coarser
  // levels), so a seal can carry the engine over budget even with no
  // ingest in flight; enforce after releasing the shard locks.
  MaybeEnforceBudget();
  return Status::OK();
}

ShardedStreamEngine::GatheredCells ShardedStreamEngine::GatherAlignedCells(
    GatherMode mode) {
  if (mode == GatherMode::kFull) return GatherFull();

  // Phase 0 — whole-engine cache: every read method at one revision shares
  // one gather, so SnapshotWindow + ObservationDeck + DetectTrendChanges
  // back to back pay for a single pass (the hit is a refcount copy).
  {
    const std::uint64_t rev = revision_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(gather_mu_);
    if (gather_valid_ && gather_cache_.revision == rev) {
      GatheredCells cached = gather_cache_;  // shares the merged run
      cached.stats = GatherStats{};
      cached.stats.cells = static_cast<std::int64_t>(cached.cells->size());
      cached.stats.shards_reused = num_shards();
      return cached;
    }
  }

  // One merged-run rebuild at a time: concurrent builders would duplicate
  // the splice work and race to install the result. The shards themselves
  // are read through their published pointers (no shard lock on the
  // steady-state path), so this is pure thundering-herd protection.
  std::lock_guard<std::mutex> work(gather_work_mu_);

  GatheredCells out;
  out.revision = revision_.load(std::memory_order_acquire);

  // Re-check the cache: the previous holder of the work lock probably
  // built exactly the run we came for.
  {
    std::lock_guard<std::mutex> lock(gather_mu_);
    if (gather_valid_ && gather_cache_.revision == out.revision) {
      GatheredCells cached = gather_cache_;
      cached.stats = GatherStats{};
      cached.stats.cells = static_cast<std::int64_t>(cached.cells->size());
      cached.stats.shards_reused = num_shards();
      return cached;
    }
  }

  // Phase 1 — publications: load each shard's last published generation.
  // A fresh publication (no write to the shard since the last read) is
  // served without touching the shard mutex at all; a shard written since
  // pays one locked republish, and that splices in just the cells changed
  // since the last read — O(changed cells), however many batches the
  // writers absorbed in between.
  const size_t n = shards_.size();
  std::vector<std::shared_ptr<const ShardPublication>> pubs(n);
  std::vector<GatherStats> stats(n);
  std::vector<Status> statuses(n);
  auto gather_one = [&](std::int64_t idx) {
    const size_t i = static_cast<size_t>(idx);
    pubs[i] = PublicationFor(i, &stats[i], &statuses[i]);
  };
  ParallelForOrSerial(pool_.get(), static_cast<std::int64_t>(n), gather_one);

  // A failed republish (fault-in error on a spilled cell) poisons the
  // whole run: return the typed error without touching the cache. Nothing
  // was lost — the failing shard kept its dirty list and retained run, so
  // the retry repeats exactly the failed work; fresh shards still serve
  // their publications for free.
  for (size_t i = 0; i < n; ++i) {
    if (pubs[i] == nullptr) {
      out.status = std::move(statuses[i]);
      out.cells = std::make_shared<std::vector<CellSnapshot>>();
      return out;
    }
  }

  TimeTick target = clock_.load(std::memory_order_acquire);
  for (const auto& pub : pubs) target = std::max(target, pub->now);
  out.clock = target;
  const TiltPolicy& policy = *options_.tilt_policy;

  // Phase 2 — fold, outside every lock. The published runs are sorted and
  // key-disjoint (cells are hash-partitioned), so a cascade of in-place
  // merges over copies yields the canonical merged run — pointer copies
  // only; no frame is touched here. The copies matter: alignment below
  // swaps frame pointers per cell, and the publications stay live for
  // concurrent point queries and later gathers.
  auto merged = std::make_shared<std::vector<CellSnapshot>>();
  size_t total = 0;
  for (const auto& pub : pubs) total += pub->cells->size();
  merged->reserve(total);
  for (const auto& pub : pubs) {
    if (pub->cells->empty()) continue;
    const auto middle = static_cast<std::ptrdiff_t>(merged->size());
    merged->insert(merged->end(), pub->cells->begin(), pub->cells->end());
    std::inplace_merge(merged->begin(), merged->begin() + middle,
                       merged->end(), CellSnapshotCanonicalLess);
  }
  // Per-block copy-on-write alignment: a block is re-materialized only if
  // a tilt unit ends between its freeze tick and the target (see
  // TiltPolicy::AnyUnitEndIn) — a run already at the clock shares every
  // block and this pass copies nothing.
  AlignRunToClock(*merged, target, policy, pool_.get(), &out.stats);
  out.cells = std::move(merged);
  for (const GatherStats& s : stats) out.stats.Merge(s);
  out.stats.cells = static_cast<std::int64_t>(out.cells->size());

  // Install as the new cache entry. Builders are serialized, so this is
  // strictly newer than whatever is cached; a racing writer may already
  // have moved the revision again, in which case the next gather rebuilds
  // from the (then fresher) publications.
  {
    std::lock_guard<std::mutex> lock(gather_mu_);
    if (tracker_ != nullptr) {
      if (gather_valid_) {
        tracker_->Release(kGatherCacheCategory,
                          SliceBytes(*gather_cache_.cells));
      }
      tracker_->Add(kGatherCacheCategory, SliceBytes(*out.cells));
    }
    gather_cache_ = out;  // refcount copy of the shared run
    gather_valid_ = true;
  }
  // The publish refresh above is the moment cells turn clean (spillable):
  // writes and slot-sealing seals re-dirty them, so post-write enforcement
  // can find nothing to spill in a hot-everywhere stream (without a reader
  // only the export.dirty rung can). Enforcing here —
  // after the dirty lists drained, outside every shard lock — is what
  // lets a budgeted engine actually converge under ingest/read churn.
  MaybeEnforceBudget();
  return out;
}

ShardedStreamEngine::GatheredCells ShardedStreamEngine::GatherFull() {
  GatheredCells out;
  out.revision = revision_.load(std::memory_order_acquire);

  const size_t n = shards_.size();
  std::vector<std::vector<CellSnapshot>> slices(n);
  std::vector<GatherStats> stats(n);
  std::vector<Status> statuses(n);
  std::vector<TimeTick> shard_now(n, 0);
  auto gather_one = [&](std::int64_t idx) {
    const size_t i = static_cast<size_t>(idx);
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard_now[i] = shard.engine.now();
    statuses[i] = shard.engine.ExportCellsFull(&slices[i], &stats[i]);
  };
  ParallelForOrSerial(pool_.get(), static_cast<std::int64_t>(n), gather_one);
  for (Status& s : statuses) {
    if (!s.ok()) {
      out.status = std::move(s);
      out.cells = std::make_shared<std::vector<CellSnapshot>>();
      return out;
    }
  }

  TimeTick target = clock_.load(std::memory_order_acquire);
  for (TimeTick t : shard_now) target = std::max(target, t);
  out.clock = target;

  // Align every copy to the target, merge, sort canonically — the
  // pre-redesign read cost, retained as the bench/tests baseline.
  const TiltPolicy& policy = *options_.tilt_policy;
  auto merged = std::make_shared<std::vector<CellSnapshot>>();
  size_t total = 0;
  for (const auto& slice : slices) total += slice.size();
  merged->reserve(total);
  for (auto& slice : slices) {
    merged->insert(merged->end(), std::make_move_iterator(slice.begin()),
                   std::make_move_iterator(slice.end()));
  }
  AlignRunToClock(*merged, target, policy, pool_.get(), &out.stats);
  std::sort(merged->begin(), merged->end(), CellSnapshotCanonicalLess);
  out.cells = std::move(merged);
  for (const GatherStats& s : stats) out.stats.Merge(s);
  out.stats.cells = static_cast<std::int64_t>(out.cells->size());
  return out;
}

ShardedStreamEngine::MemberGather ShardedStreamEngine::GatherCellsMatching(
    CuboidId cuboid, const CellKey& key, PointLookup lookup) {
  MemberGather out;
  const size_t n = shards_.size();
  std::vector<std::vector<CellSnapshot>> slices(n);
  std::vector<TimeTick> shard_now(n, 0);
  std::vector<std::int64_t> totals(n, 0);

  if (lookup == PointLookup::kScan) {
    // Oracle path, fully under the shard locks: every key projected, every
    // member shared in place — the pre-index cost model, retained for
    // bit-identity tests.
    std::vector<Status> statuses(n);
    auto gather_one = [&](std::int64_t idx) {
      const size_t i = static_cast<size_t>(idx);
      Shard& shard = *shards_[i];
      std::lock_guard<std::mutex> lock(shard.mu);
      shard_now[i] = shard.engine.now();
      totals[i] = shard.engine.num_cells();
      statuses[i] = shard.engine.ExportMatchingCells(cuboid, key, &slices[i]);
    };
    ParallelForOrSerial(pool_.get(), static_cast<std::int64_t>(n),
                        gather_one);
    for (Status& s : statuses) {
      if (!s.ok()) {
        out.status = std::move(s);
        out.cells.clear();
        return out;
      }
    }
  } else {
    // Indexed path: the shard lock covers only the member-index hash probe
    // (no frame work at all); the members are then resolved against the
    // shard's published run outside the lock. The probe-then-load order
    // makes the RC_CHECK safe: a key the index held when we unlocked is in
    // any publication at least that fresh (cells are never erased, and
    // PublicationFor never serves a generation older than the last
    // completed write).
    std::vector<std::vector<CellKey>> members(n);
    for (size_t i = 0; i < n; ++i) {
      Shard& shard = *shards_[i];
      std::lock_guard<std::mutex> lock(shard.mu);
      shard_now[i] = shard.engine.now();
      totals[i] = shard.engine.num_cells();
      shard.engine.AppendMemberKeys(cuboid, key, &members[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (members[i].empty()) continue;
      Status status;
      auto pub = PublicationFor(i, nullptr, &status);
      if (pub == nullptr) {
        out.status = std::move(status);
        out.cells.clear();
        return out;
      }
      shard_now[i] = std::max(shard_now[i], pub->now);
      slices[i].reserve(members[i].size());
      for (const CellKey& member : members[i]) {
        auto it = std::lower_bound(
            pub->cells->begin(), pub->cells->end(), member,
            [](const CellSnapshot& a, const CellKey& b) {
              return CanonicalKeyLess(a.key, b);
            });
        RC_CHECK(it != pub->cells->end() && it->key == member)
            << "member key missing from published run";
        slices[i].push_back(*it);
      }
    }
  }

  TimeTick target = clock_.load(std::memory_order_acquire);
  for (TimeTick t : shard_now) target = std::max(target, t);
  out.clock = target;
  for (std::int64_t t : totals) out.total_cells += t;

  size_t matches = 0;
  for (const auto& slice : slices) matches += slice.size();
  out.cells.reserve(matches);
  for (auto& slice : slices) {
    out.cells.insert(out.cells.end(), std::make_move_iterator(slice.begin()),
                     std::make_move_iterator(slice.end()));
  }
  AlignRunToClock(out.cells, target, *options_.tilt_policy,
                  /*pool=*/nullptr, /*stats=*/nullptr);
  std::sort(out.cells.begin(), out.cells.end(), CellSnapshotCanonicalLess);
  return out;
}

std::vector<std::vector<CellKey>> ShardedStreamEngine::MemberKeysForBatch(
    CuboidId cuboid, const std::vector<CellKey>& keys) {
  std::vector<std::vector<CellKey>> members(keys.size());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (size_t i = 0; i < keys.size(); ++i) {
      shard->engine.AppendMemberKeys(cuboid, keys[i], &members[i]);
    }
  }
  // Canonical order — the order the memoized window (and therefore its
  // H-tree) was built in, which the seeded node indexes rely on.
  for (auto& list : members) {
    std::sort(list.begin(), list.end(), CanonicalKeyLess);
  }
  return members;
}

std::vector<CellKey> ShardedStreamEngine::MemberKeysFor(CuboidId cuboid,
                                                        const CellKey& key) {
  return std::move(MemberKeysForBatch(cuboid, {key}).front());
}

Result<std::vector<MLayerTuple>> ShardedStreamEngine::SnapshotWindow(int level,
                                                                     int k) {
  GatheredCells gathered = GatherAlignedCells();
  RC_RETURN_IF_ERROR(gathered.status);
  return SnapshotWindowOf(*gathered.cells, level, k);
}

Result<RegressionCube> ShardedStreamEngine::ComputeCube(int level, int k) {
  // The by-value export door must not evict a live memo of a different
  // window (a caller alternating a (level, k) export with cube-kind
  // drilling would otherwise force a full rebuild on every call): when
  // the windows disagree, compute from scratch and leave the memo alone.
  if (cube_memo_->WouldEvictDifferentWindow(level, k)) {
    GatheredCells gathered = GatherAlignedCells();
    RC_RETURN_IF_ERROR(gathered.status);
    return SnapshotCubeOf(schema_, *gathered.cells, options_, level, k,
                          pool_.get());
  }
  auto shared = ComputeCubeShared(level, k);
  if (!shared.ok()) return shared.status();
  return (*shared)->Clone();
}

Result<std::shared_ptr<const RegressionCube>>
ShardedStreamEngine::ComputeCubeShared(int level, int k) {
  // A memo at the current revision is the answer whatever a gather would
  // return (CubeFor hands out the memo at its own revision), so serve it
  // before gathering: no shard is touched, nothing spilled is faulted in,
  // and no enforcement runs to evict the very memo being served. Every
  // observable change moves `revision_` first, so this never serves stale.
  if (auto hit = cube_memo_->HitAt(revision_.load(std::memory_order_acquire),
                                   level, k)) {
    return hit;
  }
  GatheredCells gathered = GatherAlignedCells();
  RC_RETURN_IF_ERROR(gathered.status);
  return cube_memo_->CubeFor(gathered.cells, gathered.revision, level, k,
                             pool_.get());
}

IncrementalCubeCache::Stats ShardedStreamEngine::cube_memo_stats() const {
  return cube_memo_->stats();
}

std::int64_t ShardedStreamEngine::CubeMemoBytes() const {
  return cube_memo_->MemoryBytes();
}

Result<RegressionCube> ShardedStreamEngine::ComputeCubeAllLocks(int level,
                                                                int k) {
  auto locks = LockAll();
  const std::uint64_t before = SumShardRevisionsLocked();
  Status aligned = AlignLocked();
  // The all-locks read force-seals lagging shards (the behavior the
  // snapshot path retired); that mutation must move the global revision or
  // the gather caches would serve pre-seal state as current.
  if (SumShardRevisionsLocked() != before) {
    revision_.fetch_add(1, std::memory_order_release);
  }
  MirrorVersionsLocked();
  RC_RETURN_IF_ERROR(aligned);
  std::int64_t cells = 0;
  for (const auto& shard : shards_) cells += shard->engine.num_cells();
  if (cells == 0) {
    return Status::FailedPrecondition("no stream data ingested yet");
  }
  std::vector<MLayerTuple> merged;
  merged.reserve(static_cast<size_t>(cells));
  for (auto& shard : shards_) {
    if (shard->engine.num_cells() == 0) continue;
    auto window = shard->engine.SnapshotWindow(level, k);
    if (!window.ok()) return window.status();
    merged.insert(merged.end(), window->begin(), window->end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const MLayerTuple& a, const MLayerTuple& b) {
              return CanonicalKeyLess(a.key, b.key);
            });
  return ComputeCubeFromWindow(schema_, merged, options_, nullptr);
}

Result<ShardedStreamEngine::DeckSeries> ShardedStreamEngine::ObservationDeck(
    int level) {
  GatheredCells gathered = GatherAlignedCells();
  RC_RETURN_IF_ERROR(gathered.status);
  return SnapshotDeckOf(*gathered.cells, lattice_,
                        options_.tilt_policy->num_levels(), level);
}

Result<std::vector<ShardedStreamEngine::TrendChange>>
ShardedStreamEngine::DetectTrendChanges(int level, double threshold) {
  GatheredCells gathered = GatherAlignedCells();
  RC_RETURN_IF_ERROR(gathered.status);
  return SnapshotTrendChangesOf(*gathered.cells, lattice_,
                                options_.tilt_policy->num_levels(), level,
                                threshold);
}

Result<Isb> ShardedStreamEngine::QueryCell(CuboidId cuboid, const CellKey& key,
                                           int level, int k) {
  // Validation precedes the gather; every point-query door shares it.
  RC_RETURN_IF_ERROR(ValidatePointQueryTarget(
      lattice_, cuboid, level, options_.tilt_policy->num_levels()));
  MemberGather gathered = GatherCellsMatching(cuboid, key);
  RC_RETURN_IF_ERROR(gathered.status);
  if (gathered.total_cells == 0) return SnapshotNoDataError();
  if (gathered.cells.empty()) {
    return SnapshotNoMembersError(lattice_, cuboid, key);
  }
  return SnapshotCellOf(gathered.cells, lattice_, cuboid, key, level, k);
}

Result<std::vector<Isb>> ShardedStreamEngine::QueryCellSeries(
    CuboidId cuboid, const CellKey& key, int level) {
  // Validation precedes the gather, in the legacy kernel's order:
  // cuboid, then level, then no-data / no-members.
  RC_RETURN_IF_ERROR(ValidatePointQueryTarget(
      lattice_, cuboid, level, options_.tilt_policy->num_levels()));
  MemberGather gathered = GatherCellsMatching(cuboid, key);
  RC_RETURN_IF_ERROR(gathered.status);
  if (gathered.total_cells == 0) return SnapshotNoDataError();
  if (gathered.cells.empty()) {
    return SnapshotNoMembersError(lattice_, cuboid, key);
  }
  return SnapshotCellSeriesOf(gathered.cells, lattice_,
                              options_.tilt_policy->num_levels(), cuboid, key,
                              level);
}

std::int64_t ShardedStreamEngine::num_cells() const {
  std::int64_t cells = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    cells += shard->engine.num_cells();
  }
  return cells;
}

std::int64_t ShardedStreamEngine::MemoryBytes() const {
  std::int64_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->engine.MemoryBytes();
  }
  return bytes;
}

std::int64_t ShardedStreamEngine::MemberIndexBytes() const {
  std::int64_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->engine.MemberIndexBytes();
  }
  return bytes;
}

Status ShardedStreamEngine::ConfigureStorage(const MemoryBudgetConfig& config) {
  if (config.budget_bytes < 0) {
    return Status::InvalidArgument(
        StrPrintf("memory budget must be >= 0, got %lld",
                  static_cast<long long>(config.budget_bytes)));
  }
  if (config.compact_garbage_ratio <= 0.0) {
    return Status::InvalidArgument(
        StrPrintf("compaction garbage ratio must be > 0, got %g",
                  config.compact_garbage_ratio));
  }
  if (config.compact_min_bytes < 0) {
    return Status::InvalidArgument(
        StrPrintf("compaction min bytes must be >= 0, got %lld",
                  static_cast<long long>(config.compact_min_bytes)));
  }
  budget_config_ = config;
  if (!config.spill_dir.empty()) {
    auto store = FrameStore::Open(config.spill_dir);
    if (!store.ok()) return store.status();
    frame_store_ = std::move(*store);
    frame_store_->set_fault_injector(fault_injector_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::lock_guard<std::mutex> lock(shards_[i]->mu);
      shards_[i]->engine.set_frame_store(frame_store_.get(),
                                         static_cast<int>(i));
    }
  }
  if (config.budget_bytes > 0) {
    governor_ = std::make_unique<MemoryGovernor>(
        config.budget_bytes, [this] { return UsageBytes(); });
    // The typed eviction ladder, cheapest-to-rebuild first. The api layer
    // registers its snapshot cache at priority 19, between the memo and
    // the core gather caches.
    governor_->AddRung(10, "cube.memo",
                       [this](std::int64_t) { return DropCubeMemoRung(); });
    governor_->AddRung(21, "gather.caches", [this](std::int64_t) {
      return DropGatherCachesRung();
    });
    if (frame_store_ != nullptr) {
      governor_->AddRung(30, "frames.spill", [this](std::int64_t excess) {
        return SpillColdFramesRung(excess);
      });
      // The last rung handles the all-dirty overshoot: cold spill only
      // takes clean cells, so a hot-everywhere stream — or any stream no
      // reader has published since (writers never publish) — can leave
      // rung 30 with nothing to do. An internal export turns the dirty
      // cells clean, then the spill sweep re-runs — the ladder converges
      // instead of stalling one rung short of its only real lever.
      governor_->AddRung(40, "export.dirty", [this](std::int64_t excess) {
        return ExportDirtyRung(excess);
      });
    }
  }
  return Status::OK();
}

void ShardedStreamEngine::MaybeEnforceBudget() {
  // Never re-enter the governor from inside one of its own rungs: the
  // try_lock on a mutex this thread already holds would be UB.
  if (tl_in_budget_rung) return;
  if (governor_ == nullptr) return;
  governor_->MaybeEnforce();
  // Compaction rides the enforcement heartbeat, sampled so the per-call
  // cost stays one relaxed fetch_add: garbage accrues a block at a time,
  // so a ~256-call probe period bounds staleness without a new thread.
  if (frame_store_ != nullptr &&
      (enforce_calls_.fetch_add(1, std::memory_order_relaxed) & 0xFF) == 0) {
    MaybeCompactSegments();
  }
}

void ShardedStreamEngine::MaybeCompactSegments() {
  if (frame_store_ == nullptr) return;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const int shard = static_cast<int>(i);
    if (!frame_store_->ShouldCompact(shard,
                                     budget_config_.compact_garbage_ratio,
                                     budget_config_.compact_min_bytes)) {
      continue;
    }
    // The shard lock spans the rewrite *and* the re-pointing: a reader on
    // this shard either sees the old refs before the swap or the new refs
    // after — never a ref into a retired segment.
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    auto relocations = frame_store_->CompactShardSegment(shard);
    if (!relocations.ok()) continue;  // counted in CompactionStats.failures
    shards_[i]->engine.RepointSpilledBlocks(*relocations);
  }
}

void ShardedStreamEngine::set_fault_injector(FaultInjector* injector) {
  fault_injector_ = injector;
  if (frame_store_ != nullptr) frame_store_->set_fault_injector(injector);
}

std::int64_t ShardedStreamEngine::ExportDirtyRung(std::int64_t excess) {
  // Deliberately NOT a gather: rung 21 just dropped the cached run, so a
  // gather here would be a full export that faults every spilled cell
  // back in — undoing rung 30's work while claiming to help. Cleaning
  // the dirty queues touches only resident cells and costs no I/O.
  ScopedFlag in_rung(tl_in_budget_rung);
  std::int64_t cleaned = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    cleaned += shard->engine.CleanDirtyCells();
  }
  if (cleaned == 0) return 0;  // nothing was dirty; rung 30 said it all
  // The newly-clean cells are spillable; sweep them out now rather than
  // waiting for the next enforcement to notice.
  return SpillColdFramesRung(excess);
}

std::int64_t ShardedStreamEngine::UsageBytes() const {
  if (tracker_ != nullptr) return tracker_->current_bytes();
  return MemoryBytes() + MemberIndexBytes() + CubeMemoBytes() +
         IngestQueueBytes();
}

std::int64_t ShardedStreamEngine::DropCubeMemoRung() {
  const std::int64_t bytes = cube_memo_->MemoryBytes();
  cube_memo_->Invalidate();
  return bytes;
}

std::int64_t ShardedStreamEngine::DropGatherCachesRung() {
  std::int64_t freed = 0;
  {
    // Dropping the cached run is safe against an in-flight delta gather:
    // the builder snapshotted its base earlier and installs its result
    // unconditionally (re-registering tracker bytes), so the only effect
    // here is that the *next* gather starts from a full export.
    std::lock_guard<std::mutex> lock(gather_mu_);
    if (gather_valid_) {
      const std::int64_t bytes = SliceBytes(*gather_cache_.cells);
      if (tracker_ != nullptr && bytes > 0) {
        tracker_->Release(kGatherCacheCategory, bytes);
      }
      freed += bytes;
      gather_cache_ = GatheredCells{};  // drops the run's shared_ptr
      gather_valid_ = false;
    }
  }
  // Retire each shard's published generation too: frames the writers have
  // cloned since are only truly freed once no retained run shares them —
  // which the drops above and below arrange. Readers that arrive before
  // the next publish pay one locked full export (the eviction trade).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->Publish(nullptr);
    freed += shard->engine.DropPublishedRun();
  }
  return freed;
}

std::int64_t ShardedStreamEngine::SpillColdFramesRung(std::int64_t excess) {
  const size_t n = shards_.size();
  std::vector<std::int64_t> resident(n, 0);
  std::int64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    resident[i] = shards_[i]->engine.MemoryBytes();
    total += resident[i];
  }
  if (total <= 0 || excess <= 0) return 0;
  std::int64_t freed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (resident[i] <= 0) continue;
    // Each shard spills its proportional share, rounded up so a small
    // excess still makes progress somewhere.
    const std::int64_t target = (excess * resident[i] + total - 1) / total;
    if (target <= 0) continue;
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    freed += shards_[i]->engine.SpillColdFrames(target).bytes;
  }
  return freed;
}

regcube::SpillStats ShardedStreamEngine::SpillStats() const {
  regcube::SpillStats out;
  out.budget_bytes = budget_config_.budget_bytes;
  if (governor_ != nullptr) {
    const MemoryGovernor::Stats g = governor_->stats();
    out.enforcements = g.enforcements;
    for (const auto& rung : g.rungs) {
      out.evicted_bytes += rung.reclaimed_bytes;
      if (rung.name == "cube.memo") {
        out.memo_evictions += rung.invocations;
      } else if (rung.name == "frames.spill") {
        out.spill_evictions += rung.invocations;
      } else if (rung.name == "export.dirty") {
        out.export_evictions += rung.invocations;
      } else {
        out.cache_evictions += rung.invocations;
      }
    }
  }
  out.budget_rejects = budget_rejects_.load(std::memory_order_relaxed);
  if (frame_store_ != nullptr) {
    const FrameStoreStats s = frame_store_->Stats();
    out.spilled_blocks = s.spilled_blocks;
    out.spilled_bytes = s.spilled_bytes;
    out.fault_ins = s.fault_ins;
    out.fault_in_bytes = s.fault_in_bytes;
    out.fault_in_p99_us = s.fault_in_p99_us;
    out.disk_bytes = s.disk_bytes;
    out.live_bytes = s.live_bytes;
    out.garbage_bytes = s.garbage_bytes;
    const CompactionStats c = frame_store_->Compactions();
    out.compactions = c.compactions;
    out.compacted_bytes = c.compacted_bytes;
    out.reclaimed_bytes = c.reclaimed_bytes;
    out.compaction_failures = c.failures;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.spilled_cells += shard->engine.SpilledCells();
    out.io_errors += shard->engine.SpillIoErrors();
    out.retries += shard->engine.SpillRetries();
  }
  return out;
}

Status ShardedStreamEngine::CheckpointTo(const std::string& dir) {
  // Queued tuples must land before the cut (async mode); then every shard
  // lock is held so the files describe one consistent instant.
  RC_RETURN_IF_ERROR(Flush());
  RC_RETURN_IF_ERROR(EnsureDirectory(dir));
  auto locks = LockAll();
  const size_t n = shards_.size();
  std::vector<Status> statuses(n);
  std::vector<std::int64_t> counts(n, 0);
  auto write_one = [&](std::int64_t idx) {
    const size_t i = static_cast<size_t>(idx);
    const StreamCubeEngine& engine = shards_[i]->engine;
    auto bytes = engine.EncodeCheckpointShard(static_cast<int>(i));
    if (!bytes.ok()) {
      statuses[i] = bytes.status();
      return;
    }
    counts[i] = engine.num_cells();
    statuses[i] =
        WriteFile(CheckpointShardFilePath(dir, static_cast<int>(i)), *bytes);
  };
  ParallelForOrSerial(pool_.get(), static_cast<std::int64_t>(n), write_one);
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  CheckpointManifest manifest;
  manifest.num_shard_files = num_shards();
  manifest.num_dims = schema_->num_dims();
  manifest.num_levels = options_.tilt_policy->num_levels();
  manifest.start_tick = options_.start_tick;
  TimeTick clock = clock_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    clock = std::max(clock, shard->engine.now());
    manifest.seal_clock =
        std::max(manifest.seal_clock, shard->engine.seal_clock());
  }
  manifest.clock = clock;
  for (std::int64_t c : counts) manifest.num_cells += c;
  // The manifest is the commit point: written (atomically) last, so a
  // directory with a valid manifest always has complete shard files.
  return WriteFile(CheckpointManifestPath(dir),
                   EncodeCheckpointManifest(manifest));
}

Status ShardedStreamEngine::RestoreFrom(const std::string& dir) {
  if (num_cells() != 0) {
    return Status::FailedPrecondition(
        "RestoreFrom requires a freshly built, empty engine");
  }
  auto manifest_data = ReadFile(CheckpointManifestPath(dir));
  if (!manifest_data.ok()) return manifest_data.status();
  auto manifest = DecodeCheckpointManifest(*manifest_data);
  if (!manifest.ok()) return manifest.status();
  if (manifest->num_dims != schema_->num_dims()) {
    return Status::InvalidArgument(
        StrPrintf("checkpoint was written with %d dims, schema has %d",
                  manifest->num_dims, schema_->num_dims()));
  }
  if (manifest->num_levels != options_.tilt_policy->num_levels()) {
    return Status::InvalidArgument(StrPrintf(
        "checkpoint was written with %d tilt levels, policy has %d",
        manifest->num_levels, options_.tilt_policy->num_levels()));
  }
  if (manifest->start_tick != options_.start_tick) {
    return Status::InvalidArgument(StrPrintf(
        "checkpoint starts at tick %lld, engine at %lld (OpenFrom sets "
        "this automatically)",
        static_cast<long long>(manifest->start_tick),
        static_cast<long long>(options_.start_tick)));
  }
  if (frame_store_ == nullptr) {
    // No spill dir configured: an attach-only store maps the checkpoint
    // files; later evictions just stop at the cache rungs.
    auto store = FrameStore::Open("");
    if (!store.ok()) return store.status();
    frame_store_ = std::move(*store);
    frame_store_->set_fault_injector(fault_injector_);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    shards_[i]->engine.set_frame_store(frame_store_.get(),
                                       static_cast<int>(i));
  }
  // Cells are re-routed by the *current* shard hash — the checkpoint's
  // shard count is just its file layout, not a constraint on ours.
  std::int64_t restored = 0;
  for (std::int32_t f = 0; f < manifest->num_shard_files; ++f) {
    auto entries =
        frame_store_->AttachCheckpointFile(CheckpointShardFilePath(dir, f));
    if (!entries.ok()) return entries.status();
    for (const auto& entry : *entries) {
      Shard& shard = *shards_[static_cast<size_t>(ShardIndex(entry.key))];
      std::lock_guard<std::mutex> lock(shard.mu);
      RC_RETURN_IF_ERROR(shard.engine.RestoreCell(entry.key, entry.ref));
      ++restored;
    }
  }
  if (restored != manifest->num_cells) {
    return Status::InvalidArgument(
        StrPrintf("checkpoint manifest promises %lld cells, files held %lld",
                  static_cast<long long>(manifest->num_cells),
                  static_cast<long long>(restored)));
  }
  BumpClock(manifest->clock);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->engine.RestoreClock(manifest->clock, manifest->seal_clock);
    shard->version.store(shard->engine.revision(), std::memory_order_release);
  }
  revision_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

}  // namespace regcube
