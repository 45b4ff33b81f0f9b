#ifndef REGCUBE_CORE_SHARDED_ENGINE_H_
#define REGCUBE_CORE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/common/thread_pool.h"
#include "regcube/core/incremental_cube.h"
#include "regcube/core/ingest_queue.h"
#include "regcube/core/memory_governor.h"
#include "regcube/core/shard_writer.h"
#include "regcube/core/snapshot_reads.h"
#include "regcube/core/stream_engine.h"
#include "regcube/io/frame_store.h"

namespace regcube {

class MemoryTracker;

/// The memory-governed storage tier's configuration: a global byte budget
/// shared by every shard (0 = unbounded) and the directory cold frames
/// spill to (empty = no cold tier; with a budget but no spill dir the
/// ladder stops at the cache-dropping rungs).
///
/// `compact_garbage_ratio`/`compact_min_bytes` tune online compaction: a
/// shard's spill segment is rewritten when its garbage reaches both
/// `compact_garbage_ratio` x its live bytes and `compact_min_bytes` — the
/// defaults bound steady-state disk at roughly 2x live data while keeping
/// tiny segments exempt (rewriting 4 KiB to reclaim 4 KiB is churn, not
/// compaction).
struct MemoryBudgetConfig {
  std::int64_t budget_bytes = 0;
  std::string spill_dir;
  double compact_garbage_ratio = 1.0;
  std::int64_t compact_min_bytes = 32 * 1024;
};

/// Thread-safe scale-out layer over StreamCubeEngine: m-layer cells are
/// hash-partitioned across N single-threaded shards, each guarded by its
/// own mutex. Writers touch exactly one shard per tuple, so ingest from
/// many threads proceeds in parallel; SealThrough is a barrier that locks
/// every shard and drives all of them to one global clock.
///
/// Reads are snapshot-based, O(changed cells), and — on the steady-state
/// path — free of the shard mutex: each shard engine owns one publication
/// (StreamCubeEngine::Publication: an immutable sorted run of the cells'
/// own copy-on-write frames plus the clock and revision it reflects).
/// Writers only absorb — sync callers and async shard-owner threads alike —
/// and bump the shard's version; publishing happens on read.
/// GatherAlignedCells / TakeSnapshot / point-query gathers copy the
/// current publication and never touch the shard mutex while it is fresh;
/// a stale one is republished once under the lock by the first reader
/// (only dirty cells are spliced in) and swapped in under the engine's
/// pointer-only mutex, so a shard publishes at most once per read however
/// many batches it absorbed in between. The mutex shrinks to structural
/// edits: absorb/ingest, seal and epoch roll (SealThrough), checkpointing,
/// and compaction re-pointing. A gather at the cube memo's revision
/// returns the run the memo retains (its diff base); any other gather
/// folds the shard publications — a pointer merge that republishes
/// nothing when no shard was written.
/// Alignment to the global clock happens on copies outside every lock; a
/// frame is re-materialized only when the clock crossed a tilt-unit
/// boundary since it was published (otherwise advancing is observationally
/// a no-op and the frame is shared as-is). Every read has exactly one
/// implementation here; the copy-everything and project-every-key oracles
/// the tests and benches compare against live outside the library.
///
/// Point queries copy O(matching members): GatherCellsMatching probes the
/// member index under the shard lock (a hash probe, no frame copies),
/// then binary-searches the members in the published run outside it —
/// QueryCell/QueryCellSeries never freeze or copy the whole engine to
/// answer about a handful of members.
///
/// Read results are *bit-identical for every shard count*: per-cell
/// rows are sorted into a canonical key order before any aggregation, so
/// the floating-point reduction order never depends on how cells happened
/// to be partitioned.
///
/// The key mapper (primitive key -> m-layer key) is applied here, before
/// shard hashing, so every observation of one m-layer cell lands on the
/// same shard; the inner engines run mapper-free.
class ShardedStreamEngine {
 public:
  using Options = StreamCubeEngine::Options;
  using Algorithm = StreamCubeEngine::Algorithm;

  /// `num_shards` must be >= 1 (checked). A non-null `pool` parallelizes
  /// shard gathering and per-cuboid cubing; null keeps reads serial.
  /// `ingest` selects the write path: the default kSync absorbs on the
  /// caller's thread exactly as before; kAsync puts a bounded IngestQueue
  /// in front of every shard and starts one ShardWriter owner thread per
  /// shard to drain it.
  ShardedStreamEngine(std::shared_ptr<const CubeSchema> schema,
                      Options options, int num_shards,
                      std::shared_ptr<ThreadPool> pool = nullptr,
                      IngestConfig ingest = {});

  // ---- write side (safe from many threads concurrently) ----------------

  /// Absorbs one observation (locks only the owning shard). In async mode
  /// this enqueues instead and returns the ticket's status — OK means
  /// *accepted*, not yet absorbed; Flush() is the visibility barrier.
  Status Ingest(const StreamTuple& tuple);

  /// Partitions the batch by shard and feeds each shard under its lock.
  /// Per-cell tick order within the batch is preserved. The report carries
  /// the partial-failure contract: how many tuples were absorbed before
  /// the first error (shards are fed in index order, so the absorbed set
  /// is every earlier shard's full partition plus the failing shard's
  /// prefix; now() covers every absorbed tuple either way). In async mode
  /// this routes through IngestAsync and `absorbed` counts tuples
  /// *accepted into the queues*.
  IngestReport IngestBatch(const std::vector<StreamTuple>& tuples);

  /// The async door: partitions the batch by shard (per-shard, per-cell
  /// order preserved) and enqueues each partition on its shard's queue,
  /// returning as soon as every tuple is accepted, evicted-for, or refused
  /// per the backpressure policy. Absorption happens on the shard-owner
  /// threads; a read sees the data as soon as it is absorbed (it
  /// republishes the stale shard), and Flush() waits for everything
  /// accepted so far. Callable from many threads concurrently. Pre: async
  /// mode (RC_CHECK).
  IngestTicket IngestAsync(const std::vector<StreamTuple>& tuples);

  /// Drain barrier: blocks until every tuple accepted by any queue before
  /// this call has been absorbed into its shard (or deliberately dropped
  /// under kDropOldest), then reports the first shard-engine absorb error
  /// since the last Flush (clearing it). Tuples enqueued concurrently
  /// *after* Flush begins are not waited for. When Flush returns, all
  /// waited-for absorption (and each shard's version store) happens-before
  /// the return — a subsequent read on this thread finds every shard the
  /// flush touched stale and republishes it once under its shard mutex,
  /// so it sees the flushed data. No-op OK in sync mode.
  Status Flush();

  /// Queue observability (mode/policy/capacity, per-shard depth and
  /// high-water, enqueue/absorb/drop/reject counters, p99 enqueue
  /// latency). Totals are merged across shards. Empty per_shard in sync
  /// mode — there are no queues.
  regcube::IngestStats IngestStats() const;

  /// Bytes retained by the per-shard ingest queues' preallocated rings —
  /// the "ingest.queue" figure, readable without a tracker attached
  /// (0 in sync mode).
  std::int64_t IngestQueueBytes() const;

  const IngestConfig& ingest_config() const { return ingest_; }

  /// Barrier: locks every shard, seals all of them through `t` and aligns
  /// them to one global clock, so subsequent reads see one consistent
  /// slot structure. The revision moves only if some frame actually sealed
  /// a slot — an idempotent re-seal keeps every revision-memoized snapshot
  /// valid. In async mode this Flushes first — tuples with ticks <= `t`
  /// may still be queued, and sealing past them would refuse them as late.
  Status SealThrough(TimeTick t);

  // ---- read side (gather briefly under per-shard locks, then lock-free) -

  /// The gather phase shared by every full read: shared views of all
  /// cells, aligned to one clock, in canonical key order. A shard's lock is
  /// taken only to republish a stale shard; alignment and merging happen
  /// outside every lock. The run is behind a shared_ptr so a memo-served
  /// gather and a snapshot install are refcount copies, never cell-by-cell
  /// copies. The result is immutable and self-contained — the api layer
  /// wraps it as a CubeSnapshot.
  struct GatheredCells {
    std::shared_ptr<const SnapshotCells> cells;  // canonical order, aligned
    TimeTick clock = 0;          // tick the cells are aligned to
    std::uint64_t revision = 0;  // engine revision when gathering began
    GatherStats stats;           // what this gather paid
    /// Non-OK when a shard's publish failed (a spilled cell could not be
    /// faulted in). `cells` is then empty-but-valid and no shard lost
    /// state — the failing shard kept its dirty list and its previous
    /// publication, and a shard that did republish keeps its new one — so
    /// a retry gathers exactly the same data.
    Status status;
  };

  /// Shares the cells' own frames — O(changed cells). At the cube memo's
  /// revision it returns the memo's retained run itself (a probe that
  /// never waits on memo maintenance: a busy memo means a fold); otherwise
  /// it folds the shard publications, republishing only stale shards.
  /// Either way it runs budget enforcement iff some shard republished
  /// since the last gather that did (EnforceAfterRepublish).
  GatheredCells GatherAlignedCells();

  /// The member-only gather behind point queries: shared views of just the
  /// m-layer cells that roll up into `key` of `cuboid`, aligned to the
  /// global clock, in canonical key order. Each shard hash-probes its
  /// ingest-maintained per-cuboid roll-up index under its lock —
  /// O(matching members), no cell scan. `total_cells` distinguishes
  /// "engine empty" from "no member matches" for the error contract.
  struct MemberGather {
    SnapshotCells cells;  // the matching members only
    TimeTick clock = 0;
    std::int64_t total_cells = 0;  // all cells across shards at gather time
    Status status;  // non-OK when a member's fault-in failed (Unavailable)
  };
  MemberGather GatherCellsMatching(CuboidId cuboid, const CellKey& key);

  /// The partially materialized cube over the most recent `k` sealed
  /// slots of tilt `level` with the configured algorithm, by value (a
  /// deep copy when served from the maintained memo) — for callers that
  /// persist or hand the cube elsewhere.
  /// ComputeCubeShared is the cheap door. Served like it (a memo at the
  /// current revision answers before any gather), except that a (level, k)
  /// other than a live memo's window gathers and cubes from scratch,
  /// leaving the memo alone. Cubing runs lock-free — concurrent ingest
  /// keeps flowing.
  Result<RegressionCube> ComputeCube(int level, int k);

  /// The maintained cube, for both algorithms: cached keyed by engine
  /// revision and revalidated when writes since the memo left every
  /// window in place. For m/o H-cubing, a later query folds only the
  /// delta gather's changed cells into it — each changed leaf updated in
  /// the memoized H-tree, every cuboid cell it rolls up into re-aggregated
  /// in kernel order, the exception predicate re-evaluated only for those
  /// touched cells. Bit-identical to from-scratch cubing over the same
  /// window (the patch replays the kernel's exact operand order;
  /// structural changes, window-interval rolls and every popular-path
  /// change rebuild via the from-scratch kernel itself). At the memo's own
  /// revision the memo answers before any gather: no shard is touched, no
  /// spilled cell is faulted in and no budget enforcement runs. The
  /// returned cube is immutable and safe to hold across writes.
  Result<std::shared_ptr<const RegressionCube>> ComputeCubeShared(int level,
                                                                  int k);

  /// Maintenance counters of the incremental cube memo (`patches` stays 0
  /// for popular-path engines, which rebuild instead).
  IncrementalCubeCache::Stats cube_memo_stats() const;

  /// Analytic bytes retained by the cube memo — the "cube.memo" figure,
  /// readable without a tracker attached.
  std::int64_t CubeMemoBytes() const;

  /// On-the-fly regression of one cell of any lattice cuboid, aggregated
  /// from member cells across all shards via the member-only gather —
  /// copies O(matching members), never takes a full snapshot.
  Result<Isb> QueryCell(CuboidId cuboid, const CellKey& key, int level,
                        int k);

  /// The cell's whole sealed slot series at `level` (member-only gather).
  Result<std::vector<Isb>> QueryCellSeries(CuboidId cuboid,
                                           const CellKey& key, int level);

  // ---- bookkeeping -----------------------------------------------------

  /// Global engine clock: max ingested tick / sealed boundary seen.
  TimeTick now() const { return clock_.load(std::memory_order_acquire); }

  /// Distinct m-layer cells across all shards.
  std::int64_t num_cells() const;

  /// Total bytes retained by every shard's tilt frames.
  std::int64_t MemoryBytes() const;

  /// Bytes retained by the per-shard member indexes (the "index.members"
  /// figure), readable without a tracker attached.
  std::int64_t MemberIndexBytes() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Monotonic counter bumped by every write that changed observable
  /// state; lets callers (e.g. the facade's snapshot cache) detect
  /// staleness cheaply. Writes that change nothing — an idempotent
  /// re-seal, alignment that crossed no tilt-unit boundary — leave it
  /// alone, so memoized snapshots stay shared.
  std::uint64_t revision() const {
    return revision_.load(std::memory_order_acquire);
  }

  /// Installs analytic memory accounting for the shards' frames, indexes
  /// and publications ("stream.tilt_frames", "index.members",
  /// "snapshot.gather_cache"), the ingest queues and the cube memo. Not
  /// owned; must outlive the engine. Install before concurrent use.
  void set_memory_tracker(MemoryTracker* tracker);

  // ---- the memory-governed storage tier ---------------------------------

  /// Builds the cold tier and/or governor per `config`: opens the frame
  /// store (when a spill dir is configured), attaches it to every shard,
  /// and stands up the MemoryGovernor with the core eviction ladder —
  /// cube memo with its retained run (priority 10), the shard publications
  /// (21), cold spill (30), dirty-queue cleaning (40); the api layer adds
  /// its snapshot cache at 19. Call once, after set_memory_tracker and
  /// before concurrent use. Enforcement then runs after every sync ingest
  /// and on the owner threads' post-batch hook in async mode.
  Status ConfigureStorage(const MemoryBudgetConfig& config);

  /// The governor, or null when no budget is configured — the api layer
  /// registers its snapshot-cache rung through this.
  MemoryGovernor* governor() { return governor_.get(); }

  /// The cold tier, or null when neither a spill dir was configured nor a
  /// checkpoint restored.
  const FrameStore* frame_store() const { return frame_store_.get(); }

  /// Runs the eviction ladder if usage exceeds the budget (no-op without a
  /// governor). Public so tests can force an enforcement point. Every
  /// ~256th call also probes the spill segments for compaction-worthy
  /// garbage (see MaybeCompactSegments).
  void MaybeEnforceBudget();

  /// Compacts any shard spill segment whose garbage crossed the configured
  /// threshold (MemoryBudgetConfig::compact_garbage_ratio/min_bytes): the
  /// store rewrites the segment's live blocks into a fresh file while this
  /// engine holds that shard's lock, then the shard's BlockRefs are
  /// re-pointed at the new file before the lock drops — readers can never
  /// observe a ref into a retired segment. A failed compaction is counted
  /// (SpillStats::compaction_failures) and leaves the old segment intact.
  /// Public so tests and the CLI can force a pass; normally sampled from
  /// MaybeEnforceBudget.
  void MaybeCompactSegments();

  /// Installs the fault-injection seam on the cold tier (now, if the store
  /// already exists, and on any store ConfigureStorage/RestoreFrom opens
  /// later). Not owned; must outlive the engine. Tests only.
  void set_fault_injector(FaultInjector* injector);

  /// Eviction/spill observability: governor counters, frame-store
  /// counters, and the current cold-cell population, merged.
  regcube::SpillStats SpillStats() const;

  /// Persists the whole engine under `dir`: flushes queued ingest, then —
  /// holding every shard lock — encodes each shard's cells in parallel on
  /// the pool into one "frames-<i>.rcs" file per shard (spilled cells are
  /// copied raw, no fault-in), and writes the manifest last as the commit
  /// point. The directory can be re-opened with RestoreFrom (or the api
  /// EngineBuilder::OpenFrom) for a warm restart.
  Status CheckpointTo(const std::string& dir);

  /// Warm restart: validates the manifest against this engine's schema and
  /// tilt policy, maps every shard file read-only, and installs each
  /// checkpointed cell as lazily-spilled state — no frame is decoded until
  /// first touched, so the first query after restart is served by
  /// fault-ins straight from the mapped files. Keys are re-routed by the
  /// *current* shard hash, so the shard count may differ from the writer's.
  /// Pre: the engine is freshly built and empty; call before any ingest.
  Status RestoreFrom(const std::string& dir);

  const CubeSchema& schema() const { return *schema_; }
  const CuboidLattice& lattice() const { return lattice_; }

  /// The shard configuration with the key mapper stripped (it is applied
  /// before hashing). The api layer hands this to CubeSnapshot so snapshot
  /// cubing uses the same algorithm/policy/tilt structure.
  const Options& options() const { return options_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    // The engine holds the per-shard delta state: the copy-on-write
    // frames, the dirty list, and the one publication readers share.
    StreamCubeEngine engine;
    // Mirror of engine.revision(), stored with release inside the mutex
    // at every mutation site. A reader whose loaded publication carries
    // `revision == version` knows no write completed since the publish —
    // the lock-free freshness check behind the mutex-free gather path.
    std::atomic<std::uint64_t> version{0};

    explicit Shard(std::shared_ptr<const CubeSchema> schema, Options options)
        : engine(std::move(schema), std::move(options)) {}
  };

  int ShardIndex(const CellKey& mapped_key) const;

  /// Raises the global clock to at least `t` (lock-free fetch-max).
  void BumpClock(TimeTick t);

  /// Locks every shard in index order (the one lock order, so concurrent
  /// barriers never deadlock). Its callers are the two whole-engine
  /// barriers, SealThrough and CheckpointTo; no read takes every lock.
  std::vector<std::unique_lock<std::mutex>> LockAll() const;

  /// Pre: all shard locks held. Drives every shard's clock (and frame
  /// alignment) to the global clock, so per-shard slot structures agree.
  Status AlignLocked();

  /// Pre: all shard locks held. Sum of the shard engines' revisions —
  /// compared across a barrier to decide whether the global revision must
  /// move.
  std::uint64_t SumShardRevisionsLocked() const;

  /// The one absorb step every write path goes through (sync Ingest, each
  /// partition of sync IngestBatch, each batch an owner thread drains):
  /// under one acquisition of shard `i`'s lock, ingest `tuples` (already
  /// key-mapped), diff the shard revision and mirror the version; then
  /// raise the global clock to the max tick of the absorbed prefix and bump
  /// the global revision iff the shard changed. It never publishes: the
  /// version store lands before MarkAbsorbed resolves the batch, so a
  /// reader that returned from Flush() sees the generation stale and
  /// republishes it once under the shard mutex (PublicationFor).
  IngestReport AbsorbIntoShard(size_t i, std::span<const StreamTuple> tuples);

  /// Maps each tuple's key and buckets it by owning shard, preserving
  /// per-shard arrival order.
  std::vector<std::vector<StreamTuple>> PartitionByShard(
      const std::vector<StreamTuple>& tuples) const;

  /// The shard's current publication, fresh as of this call: lock-free
  /// when its revision matches the version mirror, otherwise a slow path
  /// takes the shard mutex and republishes. Returns null (with `*status`
  /// set) only when a republish failed.
  std::shared_ptr<const StreamCubeEngine::Publication> PublicationFor(
      size_t i, GatherStats* stats, Status* status);

  /// The tail of every successful full gather: MaybeEnforceBudget iff a
  /// publication was rebuilt since the last such call (by this gather or
  /// by a point query's member gather).
  void EnforceAfterRepublish();

  /// Pre: all shard locks held. Re-mirrors every shard's version after a
  /// barrier mutated the engines (seal, force-align, restore).
  void MirrorVersionsLocked();

  /// Current usage the governor compares against the budget: the
  /// tracker's global total when one is attached (it covers frames,
  /// caches, memo, indexes, queues), else the sum of the O(1) per-shard
  /// counters.
  std::int64_t UsageBytes() const;

  // The eviction ladder's rungs (see ConfigureStorage for the order).
  std::int64_t DropCubeMemoRung();
  std::int64_t RetirePublicationsRung();
  std::int64_t SpillColdFramesRung(std::int64_t excess);
  std::int64_t ExportDirtyRung(std::int64_t excess);

  /// Sync-ingest admission: OK, or a typed ResourceExhausted when the
  /// governor has exhausted its ladder and usage still exceeds the budget
  /// (re-enforcing once first, so a transient overshoot clears itself).
  Status CheckIngestAdmission();

  std::shared_ptr<const CubeSchema> schema_;
  CuboidLattice lattice_;
  Options options_;  // shard options; key_mapper lives in mapper_ instead
  IngestConfig ingest_;
  std::function<CellKey(const CellKey&)> mapper_;
  std::shared_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<TimeTick> clock_;
  std::atomic<std::uint64_t> revision_{0};
  MemoryTracker* tracker_ = nullptr;

  // The maintained cube behind every cube read (see ComputeCubeShared).
  // Its retained run also serves GatherAlignedCells at its revision.
  std::unique_ptr<IncrementalCubeCache> cube_memo_;

  // Set by PublicationFor when it rebuilt a publication, cleared by the
  // next full gather's EnforceAfterRepublish.
  std::atomic<bool> republished_{false};

  // The memory-governed storage tier (both null until ConfigureStorage /
  // RestoreFrom): the shared cold tier and the budget enforcer. The store
  // must outlive the shards' use of it; it is declared here, before
  // writers_, so owner threads join before it is destroyed.
  MemoryBudgetConfig budget_config_;
  std::unique_ptr<FrameStore> frame_store_;
  std::unique_ptr<MemoryGovernor> governor_;
  FaultInjector* fault_injector_ = nullptr;
  std::atomic<std::int64_t> enforce_calls_{0};   // compaction probe sampler
  std::atomic<std::int64_t> budget_rejects_{0};  // typed ingest rejects

  // The async ingest subsystem (empty in sync mode). writers_ is the LAST
  // member on purpose: destruction runs in reverse declaration order, so
  // each owner thread closes its queue, drains what was accepted, and
  // joins before the queues — and the shards its absorb callback
  // touches — are torn down.
  std::vector<std::unique_ptr<IngestQueue>> queues_;
  std::vector<std::unique_ptr<ShardWriter>> writers_;
};

}  // namespace regcube

#endif  // REGCUBE_CORE_SHARDED_ENGINE_H_
