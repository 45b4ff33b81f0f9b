#include "regcube/io/frame_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/io/binary_io.h"
#include "regcube/io/cube_io.h"

namespace regcube {
namespace {

constexpr std::uint32_t kStoreMagic = 0x31534352;  // "RCS1" shard/segment file
constexpr std::uint32_t kTableMagic = 0x31544352;  // "RCT1" footer
constexpr std::uint32_t kManifestMagic = 0x314D4352;  // "RCM1"
// Version 2 added a per-block FNV-1a checksum to the checkpoint cell
// table, so a torn write inside a payload fails at attach instead of
// decoding differently.
constexpr std::uint32_t kFormatVersion = 2;
// Manifest version 3 records the seal clock; a version-2 manifest (which
// did not) is refused rather than reopened with every cell unsealed.
constexpr std::uint32_t kManifestVersion = 3;

// header: magic u32 + version u32 + shard u32 + reserved u32.
constexpr std::int64_t kFileHeaderBytes = 16;
// footer: table_offset u64 + cell count u64 + table magic u32.
constexpr std::int64_t kFooterBytes = 20;

std::uint64_t Fnv1a64(std::string_view data) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FileHeader(int shard) {
  ByteWriter w;
  w.WriteU32(kStoreMagic);
  w.WriteU32(kFormatVersion);
  w.WriteU32(static_cast<std::uint32_t>(shard));
  w.WriteU32(0);  // reserved
  return w.Release();
}

/// mkdir -p for the spill directory (checkpoint directories are created
/// by the checkpoint writer the same way).
Status MakeDirs(const std::string& dir) {
  std::string prefix;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    prefix.assign(dir, 0, i == dir.size() ? i : i + 1);
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal(
          StrPrintf("cannot create directory %s", prefix.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<FrameStore>> FrameStore::Open(const std::string& dir) {
  if (!dir.empty()) {
    RC_RETURN_IF_ERROR(MakeDirs(dir));
  }
  return std::unique_ptr<FrameStore>(new FrameStore(dir));
}

FrameStore::~FrameStore() {
  std::lock_guard<std::mutex> lock(mu_);
  for (MappedFile& f : files_) {
    if (f.map != nullptr) ::munmap(f.map, f.map_size);
    if (f.fd >= 0) ::close(f.fd);
    // Spill segments are scratch state of one engine run: meaningless
    // after the owning engine is gone, so remove them. Attached
    // checkpoint files belong to their directory and are left alone.
    if (f.writable) ::unlink(f.path.c_str());
  }
  files_.clear();
}

Status FrameStore::CheckFaultLocked(FaultOp op) const {
  return injector_ == nullptr ? Status::OK() : injector_->Check(op);
}

void FrameStore::set_fault_injector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

Result<std::int32_t> FrameStore::SegmentForLocked(int shard) {
  auto it = segment_of_shard_.find(shard);
  if (it != segment_of_shard_.end()) return it->second;
  if (dir_.empty()) {
    return Status::FailedPrecondition(
        "frame store has no spill directory configured "
        "(EngineBuilder::SetSpillDir)");
  }
  RC_RETURN_IF_ERROR(CheckFaultLocked(FaultOp::kOpen));
  MappedFile f;
  f.path = StrPrintf("%s/spill-%d.rcs", dir_.c_str(), shard);
  // O_TRUNC: a segment left by a previous run holds refs nobody remembers.
  f.fd = ::open(f.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (f.fd < 0) {
    return Status::Internal(
        StrPrintf("cannot open spill segment %s", f.path.c_str()));
  }
  f.writable = true;
  const std::string header = FileHeader(shard);
  Status fault = CheckFaultLocked(FaultOp::kWrite);
  if (!fault.ok() ||
      ::pwrite(f.fd, header.data(), header.size(), 0) !=
          static_cast<ssize_t>(header.size())) {
    ::close(f.fd);
    if (!fault.ok()) return fault;
    return Status::Internal(
        StrPrintf("cannot write header to %s", f.path.c_str()));
  }
  f.file_size = static_cast<std::int64_t>(header.size());
  const auto id = static_cast<std::int32_t>(files_.size());
  files_.push_back(std::move(f));
  segment_of_shard_[shard] = id;
  return id;
}

Status FrameStore::EnsureMappedLocked(std::int32_t id, std::int64_t need) {
  MappedFile& f = files_[static_cast<std::size_t>(id)];
  if (f.map != nullptr && static_cast<std::int64_t>(f.map_size) >= need) {
    return Status::OK();
  }
  RC_RETURN_IF_ERROR(CheckFaultLocked(FaultOp::kMmap));
  if (f.map != nullptr) {
    ::munmap(f.map, f.map_size);
    f.map = nullptr;
    f.map_size = 0;
  }
  const auto size = static_cast<std::size_t>(f.file_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, f.fd, 0);
  if (map == MAP_FAILED) {
    return Status::Internal(StrPrintf("mmap of %s (%lld bytes) failed",
                                      f.path.c_str(),
                                      static_cast<long long>(f.file_size)));
  }
  f.map = map;
  f.map_size = size;
  return Status::OK();
}

Result<std::string_view> FrameStore::ViewLocked(const BlockRef& ref) {
  if (ref.file < 0 || ref.file >= static_cast<std::int32_t>(files_.size())) {
    return Status::InvalidArgument(
        StrPrintf("block ref names unknown store file %d", ref.file));
  }
  MappedFile& f = files_[static_cast<std::size_t>(ref.file)];
  if (f.retired) {
    return Status::InvalidArgument(StrPrintf(
        "block ref [%lld, +%lld) names a compacted-away segment",
        static_cast<long long>(ref.offset),
        static_cast<long long>(ref.size)));
  }
  if (ref.offset < kFileHeaderBytes || ref.size <= 0 ||
      ref.offset + ref.size > f.file_size) {
    return Status::InvalidArgument(StrPrintf(
        "block ref [%lld, +%lld) outside %s (%lld bytes)",
        static_cast<long long>(ref.offset), static_cast<long long>(ref.size),
        f.path.c_str(), static_cast<long long>(f.file_size)));
  }
  // A released ref is stale even though its bytes still sit in the
  // append-only file: reading through it is a caller bug, surfaced as a
  // typed error rather than silently serving dead data.
  if (f.refs.find(ref.offset) == f.refs.end()) {
    return Status::InvalidArgument(StrPrintf(
        "block ref [%lld, +%lld) in %s was released",
        static_cast<long long>(ref.offset), static_cast<long long>(ref.size),
        f.path.c_str()));
  }
  RC_RETURN_IF_ERROR(EnsureMappedLocked(ref.file, ref.offset + ref.size));
  return std::string_view(static_cast<const char*>(f.map) + ref.offset,
                          static_cast<std::size_t>(ref.size));
}

Result<BlockRef> FrameStore::AppendFrame(int shard,
                                         const TiltFrameState& state) {
  const std::string payload = EncodeTiltFrameState(state);
  std::lock_guard<std::mutex> lock(mu_);
  RC_ASSIGN_OR_RETURN(std::int32_t id, SegmentForLocked(shard));
  RC_RETURN_IF_ERROR(CheckFaultLocked(FaultOp::kWrite));
  MappedFile& f = files_[static_cast<std::size_t>(id)];
  const std::int64_t offset = f.file_size;
  if (::pwrite(f.fd, payload.data(), payload.size(),
               static_cast<off_t>(offset)) !=
      static_cast<ssize_t>(payload.size())) {
    return Status::Unavailable(
        StrPrintf("short write to spill segment %s", f.path.c_str()));
  }
  const auto size = static_cast<std::int64_t>(payload.size());
  f.file_size += size;
  f.refs[offset] = BlockMeta{1, size};
  f.live_bytes += size;
  spilled_blocks_ += 1;
  spilled_bytes_ += size;
  return BlockRef{id, offset, size};
}

Result<TiltFrameState> FrameStore::ReadFrame(const BlockRef& ref) {
  const std::int64_t start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  RC_RETURN_IF_ERROR(CheckFaultLocked(FaultOp::kRead));
  RC_ASSIGN_OR_RETURN(std::string_view payload, ViewLocked(ref));
  // Decode under the mutex: a concurrent append's remap must never pull
  // the mapping out from under this view.
  auto state = DecodeTiltFrameState(payload);
  if (!state.ok()) return state.status();
  fault_ins_ += 1;
  fault_in_bytes_ += ref.size;
  RecordFaultInLocked(NowNs() - start_ns);
  return state;
}

Result<std::string> FrameStore::ReadRawBlock(const BlockRef& ref) const {
  auto* self = const_cast<FrameStore*>(this);
  std::lock_guard<std::mutex> lock(mu_);
  RC_RETURN_IF_ERROR(CheckFaultLocked(FaultOp::kRead));
  RC_ASSIGN_OR_RETURN(std::string_view payload, self->ViewLocked(ref));
  return std::string(payload);
}

void FrameStore::Release(const BlockRef& ref) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ref.file < 0 || ref.file >= static_cast<std::int32_t>(files_.size())) {
    return;
  }
  MappedFile& f = files_[static_cast<std::size_t>(ref.file)];
  if (f.retired) return;
  auto it = f.refs.find(ref.offset);
  if (it == f.refs.end()) return;
  if (--it->second.count > 0) return;
  const std::int64_t size = it->second.size;
  f.refs.erase(it);
  f.live_bytes -= size;
  f.garbage_bytes += size;
}

Result<std::vector<FrameStore::Relocation>> FrameStore::CompactShardSegment(
    int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto seg = segment_of_shard_.find(shard);
  if (seg == segment_of_shard_.end()) return std::vector<Relocation>{};
  const std::int32_t old_id = seg->second;
  {
    const MappedFile& old_f = files_[static_cast<std::size_t>(old_id)];
    if (old_f.garbage_bytes == 0) return std::vector<Relocation>{};
  }

  // Every step below that fails leaves the old segment exactly as it was:
  // the tmp file is unlinked, the refs keep pointing at the fat segment,
  // and the caller sees a typed error it can count and retry later.
  auto fail = [this](int fd, const std::string& tmp, Status status) {
    if (fd >= 0) ::close(fd);
    if (!tmp.empty()) ::unlink(tmp.c_str());
    ++compaction_.failures;
    return status;
  };

  Status fault = CheckFaultLocked(FaultOp::kOpen);
  if (!fault.ok()) return fail(-1, "", std::move(fault));
  const std::string tmp_path =
      files_[static_cast<std::size_t>(old_id)].path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return fail(-1, "", Status::Unavailable(StrPrintf(
                            "cannot open %s", tmp_path.c_str())));
  }

  // The copy reads live payloads through the old mapping.
  Status mapped = EnsureMappedLocked(
      old_id, files_[static_cast<std::size_t>(old_id)].file_size);
  if (!mapped.ok()) return fail(fd, tmp_path, std::move(mapped));

  const std::string header = FileHeader(shard);
  fault = CheckFaultLocked(FaultOp::kWrite);
  if (!fault.ok()) return fail(fd, tmp_path, std::move(fault));
  if (::pwrite(fd, header.data(), header.size(), 0) !=
      static_cast<ssize_t>(header.size())) {
    return fail(fd, tmp_path, Status::Unavailable(StrPrintf(
                                  "short write to %s", tmp_path.c_str())));
  }

  MappedFile& old_f = files_[static_cast<std::size_t>(old_id)];
  std::vector<std::pair<std::int64_t, BlockMeta>> live(old_f.refs.begin(),
                                                       old_f.refs.end());
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // The successor's id is known before it is installed: the push_back at
  // the end happens under this same lock.
  const auto new_id = static_cast<std::int32_t>(files_.size());
  std::int64_t new_size = static_cast<std::int64_t>(header.size());
  std::int64_t copied = 0;
  std::vector<Relocation> relocations;
  relocations.reserve(live.size());
  std::unordered_map<std::int64_t, BlockMeta> new_refs;
  new_refs.reserve(live.size());
  for (const auto& [offset, meta] : live) {
    fault = CheckFaultLocked(FaultOp::kWrite);
    if (!fault.ok()) return fail(fd, tmp_path, std::move(fault));
    const char* src = static_cast<const char*>(old_f.map) + offset;
    if (::pwrite(fd, src, static_cast<std::size_t>(meta.size),
                 static_cast<off_t>(new_size)) !=
        static_cast<ssize_t>(meta.size)) {
      return fail(fd, tmp_path, Status::Unavailable(StrPrintf(
                                    "short write to %s", tmp_path.c_str())));
    }
    relocations.push_back(Relocation{BlockRef{old_id, offset, meta.size},
                                     BlockRef{new_id, new_size, meta.size}});
    new_refs[new_size] = meta;
    new_size += meta.size;
    copied += meta.size;
  }

  fault = CheckFaultLocked(FaultOp::kRename);
  if (!fault.ok()) return fail(fd, tmp_path, std::move(fault));
  if (::rename(tmp_path.c_str(), old_f.path.c_str()) != 0) {
    return fail(fd, tmp_path, Status::Unavailable(StrPrintf(
                                  "cannot rename %s over %s",
                                  tmp_path.c_str(), old_f.path.c_str())));
  }

  MappedFile nf;
  nf.path = old_f.path;
  nf.fd = fd;
  nf.writable = true;
  nf.file_size = new_size;
  nf.refs = std::move(new_refs);
  nf.live_bytes = copied;

  // Retire the old slot in place: its fd and mapping are gone, its refs
  // are cleared, and any stale BlockRef that still names it keeps failing
  // typed (slots are never reused). The path now belongs to the
  // successor, so the retired record must not unlink it at destruction.
  compaction_.reclaimed_bytes += old_f.garbage_bytes;
  compaction_.compacted_bytes += copied;
  ++compaction_.compactions;
  if (old_f.map != nullptr) ::munmap(old_f.map, old_f.map_size);
  if (old_f.fd >= 0) ::close(old_f.fd);
  old_f.map = nullptr;
  old_f.map_size = 0;
  old_f.fd = -1;
  old_f.retired = true;
  old_f.writable = false;
  old_f.path.clear();
  old_f.refs.clear();
  old_f.live_bytes = 0;
  old_f.garbage_bytes = 0;
  old_f.file_size = 0;

  files_.push_back(std::move(nf));
  segment_of_shard_[shard] = new_id;
  return relocations;
}

bool FrameStore::ShouldCompact(int shard, double garbage_ratio,
                               std::int64_t min_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto seg = segment_of_shard_.find(shard);
  if (seg == segment_of_shard_.end()) return false;
  const MappedFile& f = files_[static_cast<std::size_t>(seg->second)];
  if (f.garbage_bytes < min_bytes) return false;
  return static_cast<double>(f.garbage_bytes) >=
         garbage_ratio * static_cast<double>(std::max<std::int64_t>(
                             f.live_bytes, 1));
}

CompactionStats FrameStore::Compactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compaction_;
}

Result<std::vector<FrameStore::CheckpointEntry>>
FrameStore::AttachCheckpointFile(const std::string& path) {
  // Parse via a plain read first; the mmap view is installed only after
  // the structure validates, so a corrupt file never enters the ref space.
  RC_ASSIGN_OR_RETURN(std::string data, ReadFile(path));
  ByteReader r(data);
  RC_ASSIGN_OR_RETURN(std::uint32_t magic, r.ReadU32());
  if (magic != kStoreMagic) {
    return Status::InvalidArgument(
        StrPrintf("%s: bad frame-store magic 0x%08x", path.c_str(), magic));
  }
  RC_ASSIGN_OR_RETURN(std::uint32_t version, r.ReadU32());
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrPrintf("%s: unsupported frame-store version %u", path.c_str(),
                  version));
  }
  if (data.size() < static_cast<std::size_t>(kFileHeaderBytes + kFooterBytes)) {
    return Status::OutOfRange(
        StrPrintf("%s: truncated below header + footer", path.c_str()));
  }
  RC_RETURN_IF_ERROR(r.SeekTo(data.size() - kFooterBytes));
  RC_ASSIGN_OR_RETURN(std::uint64_t table_offset, r.ReadU64());
  RC_ASSIGN_OR_RETURN(std::uint64_t cell_count, r.ReadU64());
  RC_ASSIGN_OR_RETURN(std::uint32_t table_magic, r.ReadU32());
  if (table_magic != kTableMagic) {
    return Status::InvalidArgument(
        StrPrintf("%s: bad table magic 0x%08x (truncated checkpoint?)",
                  path.c_str(), table_magic));
  }
  if (table_offset < static_cast<std::uint64_t>(kFileHeaderBytes) ||
      table_offset > data.size() - kFooterBytes) {
    return Status::OutOfRange(StrPrintf(
        "%s: table offset %llu outside file", path.c_str(),
        static_cast<unsigned long long>(table_offset)));
  }
  RC_RETURN_IF_ERROR(r.SeekTo(table_offset));

  std::vector<CheckpointEntry> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(cell_count, data.size() / 16)));
  const auto frame_magic = TiltFrameStateMagic();
  for (std::uint64_t i = 0; i < cell_count; ++i) {
    CheckpointEntry e;
    RC_ASSIGN_OR_RETURN(e.key, DecodeCellKey(&r));
    RC_ASSIGN_OR_RETURN(std::uint64_t offset, r.ReadU64());
    RC_ASSIGN_OR_RETURN(std::uint64_t size, r.ReadU64());
    RC_ASSIGN_OR_RETURN(std::uint64_t checksum, r.ReadU64());
    if (offset < static_cast<std::uint64_t>(kFileHeaderBytes) || size < 4 ||
        offset + size > table_offset) {
      return Status::OutOfRange(StrPrintf(
          "%s: cell %llu block [%llu, +%llu) outside payload region",
          path.c_str(), static_cast<unsigned long long>(i),
          static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(size)));
    }
    // Cheap per-block integrity probe: every payload must lead with the
    // tilt-frame magic. Full decode is deferred to fault-in.
    const std::string_view payload = std::string_view(data).substr(offset,
                                                                   size);
    ByteReader block(payload);
    RC_ASSIGN_OR_RETURN(std::uint32_t lead, block.ReadU32());
    if (lead != frame_magic) {
      return Status::InvalidArgument(StrPrintf(
          "%s: cell %llu payload at %llu is not a tilt-frame block",
          path.c_str(), static_cast<unsigned long long>(i),
          static_cast<unsigned long long>(offset)));
    }
    // The checksum catches what the magic cannot: a torn write anywhere
    // inside the payload would otherwise decode into different numbers
    // silently.
    if (Fnv1a64(payload) != checksum) {
      return Status::InvalidArgument(StrPrintf(
          "%s: cell %llu payload at %llu fails its checksum (torn write?)",
          path.c_str(), static_cast<unsigned long long>(i),
          static_cast<unsigned long long>(offset)));
    }
    e.ref.offset = static_cast<std::int64_t>(offset);
    e.ref.size = static_cast<std::int64_t>(size);
    entries.push_back(std::move(e));
  }

  // Structure is sound: install the file read-only in the ref space.
  MappedFile f;
  f.path = path;
  std::lock_guard<std::mutex> lock(mu_);
  RC_RETURN_IF_ERROR(CheckFaultLocked(FaultOp::kOpen));
  f.fd = ::open(path.c_str(), O_RDONLY);
  if (f.fd < 0) {
    return Status::Unavailable(StrPrintf("cannot reopen %s", path.c_str()));
  }
  f.writable = false;
  f.file_size = static_cast<std::int64_t>(data.size());
  const auto id = static_cast<std::int32_t>(files_.size());
  for (CheckpointEntry& e : entries) {
    e.ref.file = id;
    f.refs[e.ref.offset] = BlockMeta{1, e.ref.size};
    f.live_bytes += e.ref.size;
  }
  files_.push_back(std::move(f));
  return entries;
}

FrameStoreStats FrameStore::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FrameStoreStats stats;
  stats.spilled_blocks = spilled_blocks_;
  stats.spilled_bytes = spilled_bytes_;
  stats.fault_ins = fault_ins_;
  stats.fault_in_bytes = fault_in_bytes_;
  stats.fault_in_p99_us = FaultInP99Locked();
  for (const MappedFile& f : files_) {
    stats.live_blocks += static_cast<std::int64_t>(f.refs.size());
    stats.live_bytes += f.live_bytes;
    stats.garbage_bytes += f.garbage_bytes;
    stats.disk_bytes += f.file_size;
  }
  return stats;
}

std::int64_t FrameStore::DiskBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t bytes = 0;
  for (const MappedFile& f : files_) bytes += f.file_size;
  return bytes;
}

void FrameStore::RecordFaultInLocked(std::int64_t ns) {
  int bucket = 0;
  for (std::int64_t v = ns; v > 0 && bucket < kLatencyBuckets - 1; v >>= 1) {
    ++bucket;
  }
  ++latency_ns_buckets_[bucket];
  ++latency_samples_;
}

double FrameStore::FaultInP99Locked() const {
  if (latency_samples_ == 0) return 0.0;
  const std::int64_t target = (latency_samples_ * 99 + 99) / 100;
  std::int64_t seen = 0;
  for (int i = 0; i < kLatencyBuckets; ++i) {
    seen += latency_ns_buckets_[i];
    if (seen >= target) {
      return static_cast<double>(1ll << std::min(i, 62)) / 1000.0;
    }
  }
  return 0.0;
}

std::string EncodeCheckpointShardFile(
    int shard, const std::vector<std::pair<CellKey, std::string>>& cells) {
  ByteWriter w;
  w.WriteRaw(FileHeader(shard));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  spans.reserve(cells.size());
  for (const auto& [key, payload] : cells) {
    spans.emplace_back(w.size(), payload.size());
    w.WriteRaw(payload);
  }
  const std::uint64_t table_offset = w.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EncodeCellKey(&w, cells[i].first);
    w.WriteU64(spans[i].first);
    w.WriteU64(spans[i].second);
    w.WriteU64(Fnv1a64(cells[i].second));
  }
  w.WriteU64(table_offset);
  w.WriteU64(static_cast<std::uint64_t>(cells.size()));
  w.WriteU32(kTableMagic);
  return w.Release();
}

std::string EncodeCheckpointManifest(const CheckpointManifest& manifest) {
  ByteWriter w;
  w.WriteU32(kManifestMagic);
  w.WriteU32(kManifestVersion);
  w.WriteU32(static_cast<std::uint32_t>(manifest.num_shard_files));
  w.WriteU32(static_cast<std::uint32_t>(manifest.num_dims));
  w.WriteU32(static_cast<std::uint32_t>(manifest.num_levels));
  w.WriteI64(manifest.start_tick);
  w.WriteI64(manifest.clock);
  w.WriteI64(manifest.seal_clock);
  w.WriteI64(manifest.num_cells);
  return w.Release();
}

Result<CheckpointManifest> DecodeCheckpointManifest(std::string_view data) {
  ByteReader r(data);
  RC_ASSIGN_OR_RETURN(std::uint32_t magic, r.ReadU32());
  if (magic != kManifestMagic) {
    return Status::InvalidArgument(
        StrPrintf("bad checkpoint manifest magic 0x%08x", magic));
  }
  RC_ASSIGN_OR_RETURN(std::uint32_t version, r.ReadU32());
  if (version != kManifestVersion) {
    return Status::InvalidArgument(
        StrPrintf("unsupported checkpoint manifest version %u", version));
  }
  CheckpointManifest m;
  RC_ASSIGN_OR_RETURN(std::uint32_t shards, r.ReadU32());
  RC_ASSIGN_OR_RETURN(std::uint32_t dims, r.ReadU32());
  RC_ASSIGN_OR_RETURN(std::uint32_t levels, r.ReadU32());
  m.num_shard_files = static_cast<std::int32_t>(shards);
  m.num_dims = static_cast<std::int32_t>(dims);
  m.num_levels = static_cast<std::int32_t>(levels);
  RC_ASSIGN_OR_RETURN(m.start_tick, r.ReadI64());
  RC_ASSIGN_OR_RETURN(m.clock, r.ReadI64());
  RC_ASSIGN_OR_RETURN(m.seal_clock, r.ReadI64());
  RC_ASSIGN_OR_RETURN(m.num_cells, r.ReadI64());
  return m;
}

std::string CheckpointManifestPath(const std::string& dir) {
  return dir + "/MANIFEST.rcm";
}

std::string CheckpointShardFilePath(const std::string& dir, int shard) {
  return StrPrintf("%s/frames-%d.rcs", dir.c_str(), shard);
}

Status EnsureDirectory(const std::string& dir) { return MakeDirs(dir); }

}  // namespace regcube
