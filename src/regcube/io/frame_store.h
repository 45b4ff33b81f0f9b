#ifndef REGCUBE_IO_FRAME_STORE_H_
#define REGCUBE_IO_FRAME_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "regcube/common/latency_histogram.h"
#include "regcube/common/status.h"
#include "regcube/cube/cell.h"
#include "regcube/io/binary_io.h"
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
/// mid-read. Payloads are the bit-exact "RGF1" tilt-frame block encoding
/// (io/cube_io), so spill → fault-in is bitwise lossless.
///
/// A spill directory belongs to one live store: Open takes an exclusive
/// flock on "<dir>/LOCK" and holds it until the store is destroyed, so a
/// second engine pointed at the same directory is refused instead of
/// truncating the first one's segments.
class FrameStore {
 public:
  /// Opens a store rooted at `dir` (created if missing) and locks it:
  /// FailedPrecondition if another live store holds the directory. An
  /// empty `dir` yields an attach-only store: checkpoint files can be
  /// mapped and read but AppendFrame is FailedPrecondition — the shape of
  /// an engine opened from a checkpoint with no spill directory configured.
  static Result<std::unique_ptr<FrameStore>> Open(const std::string& dir);

  ~FrameStore();

  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;

  /// Encodes `frame` and appends it to `shard`'s spill segment. The
  /// returned ref starts with one reference (the caller's cell).
  Result<BlockRef> AppendFrame(int shard, const TiltTimeFrame& frame);

  /// Fault-in: decodes the block behind `ref` from the mapping into a
  /// frame under `policy`. Typed errors on a stale/corrupt ref
  /// (InvalidArgument) or a truncated file (OutOfRange); counted into the
  /// fault-in stats.
  Result<TiltTimeFrame> ReadFrame(const BlockRef& ref,
                                  std::shared_ptr<const TiltPolicy> policy);

  /// Appends the raw encoded block behind `ref` to `out` — checkpoint
  /// writing copies spilled cells without a decode/encode round trip. Not
  /// counted as a fault-in.
  Status CopyRawBlock(const BlockRef& ref, ByteWriter* out) const;

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
  /// reference). Validates structure over the mapping up front — header
  /// and footer magics, version, table bounds, every block range, its
  /// payload magic and checksum — so a corrupt or truncated file fails
  /// here with a typed error, not mid-query, and never enters the ref
  /// space.
  Result<std::vector<CheckpointEntry>> AttachCheckpointFile(
      const std::string& path);

  FrameStoreStats Stats() const;

  /// Total bytes across every store file (spill segments + attached
  /// checkpoint files) — the MemoryReport "spill.disk_bytes" figure.
  std::int64_t DiskBytes() const;

 private:
  FrameStore(std::string dir, int lock_fd)
      : dir_(std::move(dir)), lock_fd_(lock_fd) {}

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

  /// Consults the installed injector (if any) before a real I/O.
  Status CheckFaultLocked(FaultOp op) const;

  const std::string dir_;
  const int lock_fd_;  // holds the flock on <dir_>/LOCK; -1 if attach-only

  mutable std::mutex mu_;
  FaultInjector* injector_ = nullptr;
  std::vector<MappedFile> files_;
  std::unordered_map<int, std::int32_t> segment_of_shard_;
  CompactionStats compaction_;
  std::int64_t spilled_blocks_ = 0;
  std::int64_t spilled_bytes_ = 0;
  std::int64_t fault_ins_ = 0;
  std::int64_t fault_in_bytes_ = 0;
  LatencyHistogram fault_in_latency_;
};

/// The checksum of one checkpoint block, stored in the cell table and
/// verified at attach: a 64-bit hash over 8-byte little-endian words (a
/// multiply/xor-shift mix per word, four interleaved lanes folded
/// together), then the tail bytes one at a time, with the length folded
/// in. Every step is a bijection of the running state, so a block that
/// differs from the written one in exactly one byte (or one 8-byte word)
/// never hashes the same.
std::uint64_t BlockChecksum(std::string_view data);

/// Builds the bytes of one checkpoint shard file in one buffer sized up
/// front: "RCS1" header, the cells' encoded frame blocks back to back, the
/// cell table (key, offset, size, BlockChecksum), and a fixed-size footer
/// pointing at the table. Written atomically with WriteFile;
/// AttachCheckpointFile is the reader.
class CheckpointShardWriter {
 public:
  /// Reserves room for `num_cells` cells whose blocks total
  /// `block_bytes`.
  CheckpointShardWriter(int shard, std::size_t num_cells,
                        std::size_t block_bytes);

  /// Appends `frame`'s block under `key`.
  void AddFrame(const CellKey& key, const TiltTimeFrame& frame);

  /// Appends the block behind `ref` in `store` (a spilled cell) as is.
  Status AddStoredBlock(const CellKey& key, const FrameStore& store,
                        const BlockRef& ref);

  /// Appends the table and footer and returns the file's bytes.
  std::string Finish() &&;

 private:
  struct TableEntry {
    CellKey key;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t checksum = 0;
  };

  /// Records the block written since `offset` in the table.
  void EndBlock(const CellKey& key, std::size_t offset);

  ByteWriter w_;
  std::vector<TableEntry> table_;
};

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
