#ifndef REGCUBE_CORE_STREAM_ENGINE_H_
#define REGCUBE_CORE_STREAM_ENGINE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/core/member_index.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/core/popular_path.h"
#include "regcube/core/regression_cube.h"
#include "regcube/cube/exception_policy.h"
#include "regcube/io/frame_store.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {

class MemoryTracker;

/// One raw stream observation: a cell key (m-layer values, or primitive
/// values if a key mapper is installed), a time tick, and a measure value.
struct StreamTuple {
  CellKey key;
  TimeTick tick = 0;
  double value = 0.0;
};

/// Outcome of a batch ingest. `absorbed` counts the tuples applied before
/// the first error — exactly the prefix the engine kept — so callers can
/// resume or reconcile a partially failed batch instead of guessing.
/// `status` is OK iff the whole batch was absorbed (absorbed == attempted).
/// On the sharded engine the batch is partitioned by shard and shards are
/// fed in index order, so the absorbed set is the union of fully fed
/// shards plus the failing shard's prefix (still `absorbed` tuples, but
/// not a prefix of the caller's original order).
struct IngestReport {
  std::int64_t absorbed = 0;
  std::int64_t attempted = 0;
  Status status;

  bool ok() const { return status.ok(); }
};

/// One m-layer cell published for lock-free reads: its key plus a
/// refcounted read-only view of its tilt frame. The unit of the snapshot
/// read path — gathered under a shard lock, queried without any. The frame
/// is the cell's own (copy-on-write: the engine clones it before its next
/// write), so a gather that finds a cell unchanged since the last publish
/// copies a pointer, not the frame: snapshot cost scales with the cells
/// that changed, not the population.
struct CellSnapshot {
  CellKey key;
  std::shared_ptr<const TiltTimeFrame> frame;
};

/// The frozen m-layer cells a snapshot query runs against, in canonical
/// key order. Each entry shares an immutable refcounted frame block, so
/// copying a SnapshotCells (or holding one in a cache) costs pointers, not
/// frames.
using SnapshotCells = std::vector<CellSnapshot>;

/// What one gather actually paid: how many frames had to be materialized
/// (deep-copied) versus shared with the engine — only realignment across a
/// tilt-unit boundary copies — and the bytes those copies retain, plus the
/// shards served without a republish and the spilled frames faulted back
/// in. Snapshots, tests and benches read these.
struct GatherStats {
  std::int64_t cells = 0;         // cells in the gather
  std::int64_t materialized = 0;  // frames deep-copied by realignment
  std::int64_t bytes_copied = 0;  // bytes retained by those copies
  std::int64_t shards_reused = 0; // shards served without a republish
  std::int64_t fault_ins = 0;       // spilled frames read back for this gather
  std::int64_t fault_in_bytes = 0;  // encoded bytes those fault-ins decoded

  void Merge(const GatherStats& other) {
    cells += other.cells;
    materialized += other.materialized;
    bytes_copied += other.bytes_copied;
    shards_reused += other.shards_reused;
    fault_ins += other.fault_ins;
    fault_in_bytes += other.fault_in_bytes;
  }
};

/// The write half of the on-line analysis engine of §4.5: maintains one
/// tilt time frame per m-layer cell, continuously absorbing the stream,
/// and publishes those frames as an immutable canonical run (Publish). It
/// has no read method of its own: every read — windows, cubes, the
/// observation deck, trend changes, point queries — runs over a published
/// run (ShardedStreamEngine gathers one per shard, snapshot_reads.h
/// aggregates it), so there is one implementation of each read.
///
/// Tick semantics: ticks arrive in non-decreasing order per cell (enforced
/// per frame); missing ticks contribute zero (additive stream semantics,
/// see TiltTimeFrame).
class StreamCubeEngine {
 public:
  enum class Algorithm { kMoCubing, kPopularPath };

  struct Options {
    /// Tilt frame structure shared by every cell.
    std::shared_ptr<const TiltPolicy> tilt_policy;

    /// First tick of the stream.
    TimeTick start_tick = 0;

    /// Exception predicate the cube reads apply.
    ExceptionPolicy policy{0.0};

    Algorithm algorithm = Algorithm::kMoCubing;

    /// Drill path for the popular-path algorithm (default path if unset).
    std::optional<DrillPath> path;

    /// Maps incoming primitive-layer keys to m-layer keys ("the m-layer
    /// should be the layer aggregated directly from the stream data").
    /// Identity when null.
    std::function<CellKey(const CellKey&)> key_mapper;
  };

  StreamCubeEngine(std::shared_ptr<const CubeSchema> schema, Options options);

  /// Absorbs one observation.
  Status Ingest(const StreamTuple& tuple);

  /// Absorbs a batch, stopping at the first error; the report says how
  /// many tuples were absorbed before it.
  IngestReport IngestBatch(std::span<const StreamTuple> tuples);

  /// Declares that no data with tick <= `t` remains in flight: every frame
  /// seals all units ending at or before `t` ("the aggregated data will
  /// trigger the cube computation once every 15 minutes"). From then on
  /// every cell — resident, spilled, or created later — refuses a tick
  /// <= `t`.
  Status SealThrough(TimeTick t);

  /// Latest tick ingested or sealed.
  TimeTick now() const { return now_; }

  /// Number of distinct m-layer cells seen.
  std::int64_t num_cells() const {
    return static_cast<std::int64_t>(cells_.size());
  }

  /// Observation deck (§4.2): for every o-layer cell, its sealed slot
  /// series at one tilt level — "the layer an analyst takes as an
  /// observation deck, watching the changes of the current stream data".
  /// Served by CubeSnapshot and QueryResult; the engine itself only
  /// publishes the frames the deck is read from.
  using DeckSeries = std::unordered_map<CellKey, std::vector<Isb>, CellKeyHash>;

  /// A trend change at the o-layer: the regression "between two points
  /// represented by the current cell vs. the previous one" (§4.3).
  struct TrendChange {
    CellKey key;
    Isb previous;
    Isb current;
    double slope_delta = 0.0;  // |current.slope - previous.slope|
  };

  // ---- the publish half of the snapshot read path -----------------------

  /// One published generation of this engine's cells: an immutable run of
  /// the cells' own copy-on-write frames in canonical key order, plus the
  /// clock and revision it reflects. Retired generations stay alive as
  /// long as some reader holds them; their frames are freed by the last
  /// shared_ptr drop.
  struct Publication {
    std::shared_ptr<const SnapshotCells> cells;
    TimeTick now = 0;
    std::uint64_t revision = 0;
  };

  /// The current publication (null before the first Publish and after a
  /// retire). Takes only the engine's pointer-only mutex, never the
  /// caller's write lock: the mutex-free half of the read path, safe
  /// concurrently with Publish and the writes around it.
  std::shared_ptr<const Publication> Published() const;

  /// Brings the publication up to date and hands it back. The run is a
  /// full sorted export of every cell; the next publish after writes pays
  /// only for the cells on the dirty list (each cell's own frame marked
  /// shared, then spliced over a pointer-copy of the current run), and a
  /// publish with no intervening writes returns the current publication
  /// unchanged (counted as shards_reused). No frame is copied here: the
  /// writer clones a shared frame before its next mutation. Frames are
  /// published at their own clock; callers align *copies* to a global
  /// clock outside the lock (sharing survives the alignment when no
  /// tilt-unit boundary was crossed, see TiltPolicy::AnyUnitEndIn).
  /// Like every write, runs under the caller's write lock.
  ///
  /// On a fault-in failure (typed Unavailable from the store) nothing is
  /// consumed: the dirty list and the current publication stay put, so the
  /// next publish retries exactly the same work.
  Result<std::shared_ptr<const Publication>> Publish(GatherStats* stats);

  /// Retires the publication (the next Publish re-exports in full) and
  /// returns the bytes its entry vector retained. Readers holding it keep
  /// it alive.
  std::int64_t RetirePublication();

  /// Appends the m-layer keys that roll up into `key` of `cuboid` (index
  /// probe, activating the cuboid's map on first use) — the member feed
  /// of point queries (ShardedStreamEngine::GatherCellsMatching). Order is
  /// cell creation order.
  void AppendMemberKeys(CuboidId cuboid, const CellKey& key,
                        std::vector<CellKey>* out);

  /// Bytes retained by the member-index machinery: the per-cuboid roll-up
  /// maps plus the creation-order cell-id list they resolve through (also
  /// accounted to the memory tracker under "index.members").
  std::int64_t MemberIndexBytes() const {
    return member_index_.MemoryBytes() +
           static_cast<std::int64_t>(cells_by_id_.size()) *
               static_cast<std::int64_t>(sizeof(cells_by_id_[0]));
  }

  /// Monotonic counter of observable state changes: cell creation, absorbed
  /// observations, and frame advances that sealed at least one slot.
  /// Alignment that crosses no tilt-unit boundary does NOT move it — reads
  /// memoized on this revision stay valid across no-op seals.
  std::uint64_t revision() const { return revision_; }

  /// Bytes retained by the RAM-resident per-cell state (keys, map overhead,
  /// tilt frames — spilled frames excluded). Maintained incrementally
  /// per mutation, so this is O(1), and mirrored to the tracker under
  /// "stream.tilt_frames".
  std::int64_t MemoryBytes() const { return frame_bytes_; }

  /// Installs analytic memory accounting ("stream.tilt_frames",
  /// "index.members", "snapshot.gather_cache"; any bytes already held are
  /// registered immediately). Pass nullptr to detach. Not owned; must
  /// outlive the engine.
  void set_memory_tracker(MemoryTracker* tracker);

  // ---- the cold tier: spill, fault-in, checkpoint ----------------------

  /// Attaches the cold tier this engine spills to / faults in from (shared
  /// across shards; `shard_index` names this engine's spill segment). Not
  /// owned; must outlive the engine. Install before any spill/restore.
  void set_frame_store(FrameStore* store, int shard_index);

  struct SpillSweep {
    std::int64_t cells = 0;  // cells moved to the cold tier
    std::int64_t bytes = 0;  // RAM bytes released (the cells' frames)
  };

  /// Evicts clean (not dirty-queued) cells to the frame store, least
  /// recently modified first, until ~`target_bytes` of RAM is released or
  /// candidates run out. The governor's last rung. A spilled cell keeps
  /// only its BlockRef; reads fault it back in transparently, and deferred
  /// alignment at fault-in is bit-identical to eager alignment (AdvanceTo
  /// over missing ticks is deterministic), so queries cannot observe the
  /// spill. A failed append is retried a bounded number of times with a
  /// short backoff (counted in SpillRetries); if the write keeps failing
  /// the cell stays resident, the error is counted in SpillIoErrors, and
  /// the sweep stops — degradation, never data loss.
  SpillSweep SpillColdFrames(std::int64_t target_bytes);

  /// Turns every dirty-queued cell clean without exporting anything: the
  /// queue is dropped and the publication retired with it (a patch over
  /// it would miss the skipped cells), so the next publish re-exports in
  /// full. Dirty cells are resident by construction, so this touches no
  /// spilled cell — unlike a gather, which would fault the whole cold tier
  /// back in. The governor's all-dirty escape hatch: after this,
  /// SpillColdFrames has candidates again. Returns the cells cleaned.
  std::int64_t CleanDirtyCells();

  /// Applies a compaction's relocation map to this engine's spilled cells:
  /// every BlockRef that names a rewritten block is re-pointed at its copy
  /// in the new segment. Must run under the same lock that guards this
  /// engine's locked reads (the sharded engine holds the shard mutex
  /// across CompactShardSegment + this call). The publication needs no
  /// re-pointing: it carries materialized frames, not refs, so readers on
  /// the mutex-free publish path never see a retired segment.
  void RepointSpilledBlocks(
      const std::vector<FrameStore::Relocation>& relocations);

  /// Spill writes that failed even after retries (cells kept resident).
  std::int64_t SpillIoErrors() const { return spill_io_errors_; }

  /// Spill write retries that were attempted (successful or not).
  std::int64_t SpillRetries() const { return spill_retries_; }

  /// Installs one checkpointed cell as lazily-spilled state: the key is
  /// registered (indexes, revision) but the frame stays in the mapped file
  /// until first touched. The warm-restart door — OpenFrom's first query
  /// is served by fault-ins from the checkpoint mapping. Pre: a frame
  /// store is attached; the key must be new.
  Status RestoreCell(const CellKey& key, const BlockRef& ref);

  /// Moves the clock to `now` and the seal clock to `seal_clock` (each a
  /// no-op if already past) without touching any frame — restores both
  /// after RestoreCell, so a restored frame that lags the last seal is
  /// caught up to it before its next Add, like a live one.
  void RestoreClock(TimeTick now, TimeTick seal_clock) {
    now_ = std::max(now_, now);
    aligned_now_ = std::max(aligned_now_, seal_clock);
  }

  /// The clock of the last seal (AlignFrames pass): every cell refuses a
  /// tick below it. Checkpoints record it next to now().
  TimeTick seal_clock() const { return aligned_now_; }

  /// The bytes of one checkpoint shard file holding every cell, built in
  /// one pre-sized buffer (CheckpointShardWriter): resident frames encode
  /// straight from their slot blocks as-is (one a no-op seal left lagging
  /// is caught up by the restored seal clock), spilled cells copy their
  /// raw block from the store (no fault-in, no decode/re-encode). The
  /// checkpoint writer's per-shard step.
  Result<std::string> EncodeCheckpointShard(int shard) const;

  /// Cells currently cold (frame on disk, BlockRef in RAM).
  std::int64_t SpilledCells() const { return spilled_cells_; }

  const CubeSchema& schema() const { return *schema_; }
  const CuboidLattice& lattice() const { return lattice_; }

 private:
  struct CellState {
    /// The cell's one frame, copy-on-write: a publish shares this object
    /// and sets `shared`, and WritableFrame clones it before the next
    /// write. The bit decides, never use_count() (a relaxed load). Null
    /// while the cell is spilled — then `spill` names the encoded frame in
    /// the store and LiveFrame faults it back in on first touch.
    std::shared_ptr<TiltTimeFrame> frame;
    BlockRef spill;                   // valid iff frame == nullptr
    std::int64_t tracked_bytes = 0;   // this cell's share of frame_bytes_
    std::uint64_t last_modified = 0;  // revision of the last observable change
    bool queued = false;  // on dirty_cells_, awaiting the next publish
    bool shared = false;  // `frame` may be held by a reader: clone to write

    explicit CellState(std::shared_ptr<TiltTimeFrame> f)
        : frame(std::move(f)) {}
  };

  /// Advances every frame to the engine clock so slot structures align,
  /// and records that clock in aligned_now_. Bumps the revision (and
  /// dirties cells) only when a frame seals a slot.
  void AlignFrames();

  /// Advances one resident frame to `t` (the per-cell unit AlignFrames
  /// loops over; Ingest catches a cell up to the seal clock this way).
  /// An advance that seals a slot clones a shared frame first and marks
  /// the cell dirty; one that seals nothing only moves next_tick, which no
  /// read can see, so a shared frame is left lagging instead of cloned
  /// (Ingest catches it up to aligned_now_ before its next Add).
  void AlignCellToClock(const CellKey& key, CellState& state, TimeTick t);

  CellState& CellFor(const CellKey& key);

  /// Builds `cuboid`'s roll-up map from the current cell population if it
  /// is not active yet — O(cells) once per cuboid, amortized across every
  /// later probe — and keeps the tracker's "index.members" figure current.
  void EnsureIndexed(CuboidId cuboid);

  /// Re-registers the member index's bytes with the tracker after a
  /// mutation (activation or per-ingest append).
  void AccountMemberIndex();

  /// Records an observable change to a cell: bumps the revision, stamps the
  /// cell, and — if the cell was clean — queues it on the dirty list the
  /// next publish patches from.
  void MarkDirty(const CellKey& key, CellState& state);

  /// The cell's frame for a run: faults it in (counted into `stats`) and
  /// sets `shared`, so the writer clones before it next mutates. A spilled
  /// cell that cannot be faulted in yields a typed Unavailable.
  Result<std::shared_ptr<const TiltTimeFrame>> SharedFrame(CellState& state,
                                                           GatherStats* stats);

  /// The cell's frame, faulting it in from the frame store if it is
  /// spilled (fault-ins counted into `stats` when given). The single choke
  /// point every read/write path goes through, which is what makes spill
  /// transparent. A failed fault-in (typed Unavailable from the store)
  /// leaves the cell spilled and intact: the error propagates to the
  /// query/ingest caller and a later touch simply retries.
  Result<const TiltTimeFrame*> LiveFrame(CellState& state,
                                         GatherStats* stats = nullptr);

  /// LiveFrame for a mutation: clones a shared frame (and clears the bit)
  /// so no reader's view ever changes. Ingest and every sealing advance go
  /// through it.
  Result<TiltTimeFrame*> WritableFrame(CellState& state);

  /// Recomputes the cell's resident-byte contribution and folds the delta
  /// into frame_bytes_ (and the tracker). Call after any frame mutation,
  /// spill, or fault-in.
  void AccountCell(CellState& state);

  std::shared_ptr<const CubeSchema> schema_;
  CuboidLattice lattice_;
  Options options_;
  std::unordered_map<CellKey, CellState, CellKeyHash> cells_;
  TimeTick now_;
  TimeTick aligned_now_;  // now_ at the last AlignFrames pass (the seal clock)
  std::uint64_t revision_ = 0;
  std::int64_t frame_bytes_ = 0;  // resident cell bytes, kept by AccountCell
  MemoryTracker* tracker_ = nullptr;

  // The cold tier (shared across shards, not owned) and this engine's
  // segment index within it.
  FrameStore* store_ = nullptr;
  int shard_index_ = 0;
  std::int64_t spilled_cells_ = 0;
  std::int64_t spill_io_errors_ = 0;
  std::int64_t spill_retries_ = 0;

  /// Swaps `next` in as the publication and re-registers its entry bytes
  /// with the tracker (under "snapshot.gather_cache"; the frames it shares
  /// are the cells' own, counted as "stream.tilt_frames"). The retired
  /// generation is released after pub_mu_ unlocks.
  void SwapPublication(std::shared_ptr<const Publication> next);

  // The publication and the dirty list it is patched from: dirty_cells_
  // lists each cell modified since the publication — exactly what the next
  // publish must patch. The `queued` flag keeps every cell on the list at
  // most once, so the list is bounded by num_cells() regardless of how
  // writes interleave with publishes or member gathers. CellState pointers
  // are stable (node-based map) and cells are never erased, so the raw
  // pointer is safe for the engine's lifetime. pub_mu_ guards only copying
  // or swapping `publication_` (a handoff TSan can check, unlike
  // std::atomic<std::shared_ptr>); the swap also runs under the caller's
  // write lock, so the write-locked side reads the pointer without it.
  mutable std::mutex pub_mu_;
  std::shared_ptr<const Publication> publication_;
  std::int64_t publication_bytes_ = 0;
  std::vector<std::pair<CellKey, CellState*>> dirty_cells_;

  // The ingest-maintained per-cuboid roll-up index (see MemberIndex):
  // cells_by_id_ lists every cell in creation order (ids are positions;
  // cells are never erased, so both the ids and the CellState pointers are
  // stable), and member_index_ maps projected keys to member ids for each
  // lazily activated cuboid. member_index_tracked_ mirrors the bytes
  // registered with the tracker under "index.members".
  std::vector<std::pair<CellKey, CellState*>> cells_by_id_;
  MemberIndex member_index_;
  std::int64_t member_index_tracked_ = 0;
};

class ThreadPool;

/// Runs the options' configured cubing algorithm over one m-layer window —
/// the single dispatch point of every cube read (snapshot, maintained
/// memo, from-scratch rebuild). A non-null `pool` partitions the work across
/// it: per-cuboid H-cubing for m/o cubing, and each drill step's
/// ComputeDrillChildren scans for popular-path cubing (the walk along the
/// path itself stays sequential — each step's exceptions seed the next).
/// Results are identical with or without a pool.
Result<RegressionCube> ComputeCubeFromWindow(
    std::shared_ptr<const CubeSchema> schema,
    const std::vector<MLayerTuple>& tuples,
    const StreamCubeEngine::Options& options, ThreadPool* pool = nullptr);

}  // namespace regcube

#endif  // REGCUBE_CORE_STREAM_ENGINE_H_
