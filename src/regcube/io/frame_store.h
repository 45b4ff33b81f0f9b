#ifndef REGCUBE_IO_FRAME_STORE_H_
#define REGCUBE_IO_FRAME_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/cube/cell.h"
#include "regcube/io/fault_injector.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {

/// Names one encoded tilt-frame block inside a FrameStore file: which
/// mapped file, where, and how many bytes. The RAM-resident half of a
/// spilled cell — the engine keeps the ref, the payload lives on disk.
struct BlockRef {
  std::int32_t file = -1;
  std::int64_t offset = 0;
  std::int64_t size = 0;

  bool valid() const { return file >= 0; }
};

/// Cold-tier observability (Engine::SpillStats folds this in). Counters
/// are cumulative since the store opened; live/garbage describe the files
/// right now. `fault_in_p99_us` is estimated from a power-of-two latency
/// histogram — resolution is one binary order of magnitude.
struct FrameStoreStats {
  std::int64_t spilled_blocks = 0;  // blocks ever appended
  std::int64_t spilled_bytes = 0;   // bytes ever appended
  std::int64_t live_blocks = 0;     // blocks currently referenced
  std::int64_t live_bytes = 0;
  std::int64_t garbage_bytes = 0;   // released blocks still occupying disk
  std::int64_t fault_ins = 0;       // ReadFrame calls (decoded fault-ins)
  std::int64_t fault_in_bytes = 0;
  double fault_in_p99_us = 0.0;
  std::int64_t disk_bytes = 0;      // total size of every store file
};

/// Online-compaction observability. A compaction rewrites one shard's
/// spill segment: live blocks are copied into a fresh file, the garbage
/// is dropped, and the new file is renamed over the old one atomically.
struct CompactionStats {
  std::int64_t compactions = 0;      // segments successfully rewritten
  std::int64_t compacted_bytes = 0;  // live bytes copied into new segments
  std::int64_t reclaimed_bytes = 0;  // garbage bytes dropped from disk
  std::int64_t failures = 0;         // attempts that failed (old file kept)
};

/// What a checkpoint directory's manifest records: enough to validate the
/// configuration at OpenFrom and to resume the stream where it stopped.
/// `num_dims`/`num_levels` guard against reopening under a different
/// schema or tilt structure; `clock` restores the global engine clock and
/// `seal_clock` the clock of the last seal, so every cell of the reopened
/// engine (spilled, lagging or new) refuses the ticks that seal closed.
struct CheckpointManifest {
  std::int32_t num_shard_files = 0;
  std::int32_t num_dims = 0;
  std::int32_t num_levels = 0;
  TimeTick start_tick = 0;
  TimeTick clock = 0;
  TimeTick seal_clock = 0;
  std::int64_t num_cells = 0;
};

/// The mmap-backed cold tier for tilt-frame blocks — the file-resident
/// payload half of the memory-governed storage split (the RAM-resident
/// half is the engine's per-cell BlockRef index).
///
/// Two kinds of file live behind one ref space:
///  * spill segments ("spill-<shard>.rcs", append-only, one per shard,
///    created lazily in the spill directory) hold frames evicted by the
///    memory governor mid-run;
///  * checkpoint shard files ("frames-<i>.rcs", header + payload blocks +
///    cell table + footer) are attached read-only at OpenFrom, so a warm
///    restart serves its first queries straight from the mapped files.
///
/// Blocks are refcounted: AppendFrame hands back a ref the owning cell
/// holds; Release (on fault-in, or when a cell re-spills over a new block)
/// turns the bytes into garbage that the next checkpoint compacts away —
/// spill segments are never rewritten in place.
///
/// Every method is thread-safe behind one store mutex; decode happens
/// under it so a concurrent append's remap can never invalidate a view
/// mid-read. Payloads are the bit-exact "RGF1" tilt-frame encoding
/// (io/cube_io), so spill → fault-in is bitwise lossless.
class FrameStore {
 public:
  /// Opens a store rooted at `dir` (created if missing). An empty `dir`
  /// yields an attach-only store: checkpoint files can be mapped and read
  /// but AppendFrame is FailedPrecondition — the shape of an engine opened
  /// from a checkpoint with no spill directory configured.
  static Result<std::unique_ptr<FrameStore>> Open(const std::string& dir);

  ~FrameStore();

  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;

  /// Encodes `state` and appends it to `shard`'s spill segment. The
  /// returned ref starts with one reference (the caller's cell).
  Result<BlockRef> AppendFrame(int shard, const TiltFrameState& state);

  /// Fault-in: decodes the block behind `ref` from the mapping. Typed
  /// errors on a stale/corrupt ref (InvalidArgument) or a truncated file
  /// (OutOfRange); counted into the fault-in stats.
  Result<TiltFrameState> ReadFrame(const BlockRef& ref);

  /// The raw encoded payload behind `ref` — checkpoint writing copies
  /// spilled cells without a decode/encode round trip. Not counted as a
  /// fault-in.
  Result<std::string> ReadRawBlock(const BlockRef& ref) const;

  /// Drops the cell's reference; the block's bytes become garbage.
  void Release(const BlockRef& ref);

  /// Installs the fault-injection seam. `injector` is not owned and must
  /// outlive the store (or be cleared with nullptr first). Every
  /// subsequent open/write/read/mmap/rename consults it before touching
  /// the disk.
  void set_fault_injector(FaultInjector* injector);

  /// One re-pointed block of a compacted segment: the engine must replace
  /// every held copy of `from` with `to` before releasing its shard lock.
  struct Relocation {
    BlockRef from;
    BlockRef to;
  };

  /// Rewrites `shard`'s spill segment without its garbage: live blocks
  /// are copied into "<segment>.tmp", the tmp file is renamed over the
  /// original, and the old mapping is retired (stale refs keep failing
  /// typed, never alias the new file). Returns the relocation map the
  /// caller applies to its BlockRefs under the same lock that guards its
  /// reads. An empty vector means there was nothing to compact. On
  /// failure the old segment is untouched — callers keep their refs and
  /// the disk simply stays fat until a later attempt succeeds.
  ///
  /// Lock-free readers are safe by construction: a shard's *published*
  /// generation holds materialized frame blocks, never BlockRefs, so
  /// re-pointing only ever touches the mutable per-cell spill state the
  /// shard mutex already guards — a concurrent publish-pointer gather
  /// cannot observe a ref into a retired segment.
  Result<std::vector<Relocation>> CompactShardSegment(int shard);

  /// True when `shard`'s segment holds at least `min_bytes` of garbage
  /// and garbage >= `garbage_ratio` x live bytes — the governor's
  /// compaction trigger probe (the same garbage/live ratio the disk-bound
  /// acceptance check measures).
  bool ShouldCompact(int shard, double garbage_ratio,
                     std::int64_t min_bytes) const;

  CompactionStats Compactions() const;

  /// One restored cell of an attached checkpoint file.
  struct CheckpointEntry {
    CellKey key;
    BlockRef ref;
  };

  /// Maps a "frames-<i>.rcs" checkpoint file read-only into this store's
  /// ref space and returns its cell table (each entry holding one
  /// reference). Validates structure up front — header and footer magics,
  /// table bounds, every block range and its payload magic — so a corrupt
  /// or truncated file fails here with a typed error, not mid-query.
  Result<std::vector<CheckpointEntry>> AttachCheckpointFile(
      const std::string& path);

  FrameStoreStats Stats() const;

  /// Total bytes across every store file (spill segments + attached
  /// checkpoint files) — the MemoryReport "spill.disk_bytes" figure.
  std::int64_t DiskBytes() const;

 private:
  explicit FrameStore(std::string dir) : dir_(std::move(dir)) {}

  struct BlockMeta {
    std::int32_t count = 0;  // references held by cells
    std::int64_t size = 0;   // payload bytes (compaction re-reads these)
  };

  struct MappedFile {
    std::string path;
    int fd = -1;
    bool writable = false;
    bool retired = false;         // replaced by a compacted successor
    std::int64_t file_size = 0;   // bytes written / on disk
    void* map = nullptr;          // nullptr until first read
    std::size_t map_size = 0;     // bytes currently mapped
    std::unordered_map<std::int64_t, BlockMeta> refs;  // offset -> meta
    std::int64_t live_bytes = 0;
    std::int64_t garbage_bytes = 0;
  };

  /// Ensures `shard` has a spill segment, creating "spill-<shard>.rcs"
  /// with the store header on first use. Returns its file id.
  Result<std::int32_t> SegmentForLocked(int shard);

  /// Ensures file `id`'s mapping covers `[0, need)` bytes, remapping if
  /// the file grew past the current view.
  Status EnsureMappedLocked(std::int32_t id, std::int64_t need);

  /// Bounds-checks `ref` against its file and returns a view of the
  /// payload bytes through the mapping. View is valid only under mu_.
  Result<std::string_view> ViewLocked(const BlockRef& ref);

  void RecordFaultInLocked(std::int64_t ns);
  double FaultInP99Locked() const;

  /// Consults the installed injector (if any) before a real I/O.
  Status CheckFaultLocked(FaultOp op) const;

  const std::string dir_;

  mutable std::mutex mu_;
  FaultInjector* injector_ = nullptr;
  std::vector<MappedFile> files_;
  std::unordered_map<int, std::int32_t> segment_of_shard_;
  CompactionStats compaction_;
  std::int64_t spilled_blocks_ = 0;
  std::int64_t spilled_bytes_ = 0;
  std::int64_t fault_ins_ = 0;
  std::int64_t fault_in_bytes_ = 0;
  // Power-of-two fault-in latency histogram: bucket i counts reads that
  // took [2^(i-1), 2^i) ns (bucket 0: < 1 ns).
  static constexpr int kLatencyBuckets = 40;
  std::int64_t latency_ns_buckets_[kLatencyBuckets] = {};
  std::int64_t latency_samples_ = 0;
};

/// Builds the bytes of one checkpoint shard file: "RCS1" header, the
/// cells' encoded frame payloads back to back, the cell table, and a
/// fixed-size footer pointing at the table. Written atomically with
/// WriteFile; AttachCheckpointFile is the reader.
std::string EncodeCheckpointShardFile(
    int shard, const std::vector<std::pair<CellKey, std::string>>& cells);

/// Manifest codec ("RCM1") — the commit point of a checkpoint directory:
/// written last, so a directory with a valid manifest has complete shard
/// files. Decode validates magic/version and returns typed errors.
std::string EncodeCheckpointManifest(const CheckpointManifest& manifest);
Result<CheckpointManifest> DecodeCheckpointManifest(std::string_view data);

/// Canonical file names inside a checkpoint directory.
std::string CheckpointManifestPath(const std::string& dir);
std::string CheckpointShardFilePath(const std::string& dir, int shard);

/// mkdir -p: creates `dir` (and parents) if missing — the checkpoint
/// writer's first step.
Status EnsureDirectory(const std::string& dir);

}  // namespace regcube

#endif  // REGCUBE_IO_FRAME_STORE_H_
