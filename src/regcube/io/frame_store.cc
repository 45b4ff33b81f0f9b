#include "regcube/io/frame_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
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
// Version 2 added a per-block checksum to the checkpoint cell table, so a
// torn write inside a payload fails at attach instead of decoding
// differently. Version 3 replaced its byte-serial FNV-1a with the
// word-wise BlockChecksum; the blocks themselves are unchanged.
constexpr std::uint32_t kFormatVersion = 3;
// Manifest version 3 records the seal clock; a version-2 manifest (which
// did not) is refused rather than reopened with every cell unsealed.
constexpr std::uint32_t kManifestVersion = 3;

// header: magic u32 + version u32 + shard u32 + reserved u32.
constexpr std::int64_t kFileHeaderBytes = 16;
// footer: table_offset u64 + cell count u64 + table magic u32.
constexpr std::int64_t kFooterBytes = 20;

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

/// Validates a checkpoint shard file's structure over `data` and returns
/// its cell table, with refs naming no file yet. Pre: `data` is at least
/// a header and a footer long.
Result<std::vector<FrameStore::CheckpointEntry>> ParseCheckpointFile(
    const std::string& path, std::string_view data) {
  ByteReader r(data);
  RC_ASSIGN_OR_RETURN(std::uint32_t magic, r.ReadU32());
  if (magic != kStoreMagic) {
    return Status::InvalidArgument(
        StrPrintf("%s: bad frame-store magic 0x%08x", path.c_str(), magic));
  }
  RC_ASSIGN_OR_RETURN(std::uint32_t version, r.ReadU32());
  if (version != kFormatVersion) {
    return Status::InvalidArgument(StrPrintf(
        "%s: unsupported frame-store version %u (this build reads version "
        "%u; re-create the checkpoint)",
        path.c_str(), version, kFormatVersion));
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

  std::vector<FrameStore::CheckpointEntry> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(cell_count, data.size() / 16)));
  const std::uint32_t frame_magic = TiltTimeFrame::kBlockMagic;
  for (std::uint64_t i = 0; i < cell_count; ++i) {
    FrameStore::CheckpointEntry e;
    RC_ASSIGN_OR_RETURN(e.key, DecodeCellKey(&r));
    RC_ASSIGN_OR_RETURN(std::uint64_t offset, r.ReadU64());
    RC_ASSIGN_OR_RETURN(std::uint64_t size, r.ReadU64());
    RC_ASSIGN_OR_RETURN(std::uint64_t checksum, r.ReadU64());
    if (offset < static_cast<std::uint64_t>(kFileHeaderBytes) || size < 4 ||
        size > table_offset || offset > table_offset - size) {
      return Status::OutOfRange(StrPrintf(
          "%s: cell %llu block [%llu, +%llu) outside payload region",
          path.c_str(), static_cast<unsigned long long>(i),
          static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(size)));
    }
    // Cheap per-block integrity probe: every payload must lead with the
    // tilt-frame magic. Full decode is deferred to fault-in.
    const std::string_view payload = data.substr(offset, size);
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
    if (BlockChecksum(payload) != checksum) {
      return Status::InvalidArgument(StrPrintf(
          "%s: cell %llu payload at %llu fails its checksum (torn write?)",
          path.c_str(), static_cast<unsigned long long>(i),
          static_cast<unsigned long long>(offset)));
    }
    e.ref.offset = static_cast<std::int64_t>(offset);
    e.ref.size = static_cast<std::int64_t>(size);
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

std::uint64_t BlockChecksum(std::string_view data) {
  // An odd multiplier and a right xor-shift are both invertible, so each
  // step maps the running state one to one: a difference in one word or
  // tail byte survives every later step. Four lanes take every fourth
  // word so the multiplies overlap; the fold keeps each lane's difference.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  auto mix = [](std::uint64_t x) {
    x *= kMul;
    return x ^ (x >> 29);
  };
  auto load = [](const char* p) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    return word;
  };
  std::uint64_t lane[4] = {0x6A09E667F3BCC908ull, 0xBB67AE8584CAA73Bull,
                           0x3C6EF372FE94F82Bull, 0xA54FF53A5F1D36F1ull};
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 32; p += 32, n -= 32) {
    for (int i = 0; i < 4; ++i) lane[i] = mix(lane[i] ^ load(p + 8 * i));
  }
  std::uint64_t h = lane[0];
  for (int i = 1; i < 4; ++i) h = mix(h ^ lane[i]);
  for (; n >= 8; p += 8, n -= 8) h = mix(h ^ load(p));
  for (; n > 0; ++p, --n) h = mix(h ^ static_cast<unsigned char>(*p));
  return mix(h ^ static_cast<std::uint64_t>(data.size()));
}

Result<std::unique_ptr<FrameStore>> FrameStore::Open(const std::string& dir) {
  if (dir.empty()) return std::unique_ptr<FrameStore>(new FrameStore("", -1));
  RC_RETURN_IF_ERROR(MakeDirs(dir));
  // Spill segments are opened with O_TRUNC, so a second live store on the
  // same directory would wipe this one's blocks: the flock makes the
  // directory one store's at a time. The kernel drops it if the process
  // dies, so a crashed run never leaves the directory locked.
  const std::string lock_path = dir + "/LOCK";
  const int fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal(
        StrPrintf("cannot open lock file %s", lock_path.c_str()));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      return Status::FailedPrecondition(StrPrintf(
          "spill directory %s is in use by another engine (give each live "
          "engine its own spill directory)",
          dir.c_str()));
    }
    return Status::Internal(StrPrintf("cannot lock %s", lock_path.c_str()));
  }
  return std::unique_ptr<FrameStore>(new FrameStore(dir, fd));
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
  // Released last: the next store on this directory finds no segment of
  // ours left to collide with.
  if (lock_fd_ >= 0) ::close(lock_fd_);
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
                                         const TiltTimeFrame& frame) {
  ByteWriter w;
  w.Reserve(frame.BlockSize());
  frame.AppendBlock(&w);
  const std::string& payload = w.buffer();
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

Result<TiltTimeFrame> FrameStore::ReadFrame(
    const BlockRef& ref, std::shared_ptr<const TiltPolicy> policy) {
  const std::int64_t start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  RC_RETURN_IF_ERROR(CheckFaultLocked(FaultOp::kRead));
  RC_ASSIGN_OR_RETURN(std::string_view payload, ViewLocked(ref));
  // Decode under the mutex: a concurrent append's remap must never pull
  // the mapping out from under this view.
  auto frame = TiltTimeFrame::FromBlock(std::move(policy), payload);
  if (!frame.ok()) return frame.status();
  fault_ins_ += 1;
  fault_in_bytes_ += ref.size;
  RecordFaultInLocked(NowNs() - start_ns);
  return frame;
}

Status FrameStore::CopyRawBlock(const BlockRef& ref, ByteWriter* out) const {
  auto* self = const_cast<FrameStore*>(this);
  std::lock_guard<std::mutex> lock(mu_);
  RC_RETURN_IF_ERROR(CheckFaultLocked(FaultOp::kRead));
  RC_ASSIGN_OR_RETURN(std::string_view payload, self->ViewLocked(ref));
  out->WriteRaw(payload);
  return Status::OK();
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
  // Map, then validate over the mapping: the file enters the ref space
  // only once its whole structure holds, so a corrupt file never does.
  auto check_fault = [this](FaultOp op) {
    std::lock_guard<std::mutex> lock(mu_);
    return CheckFaultLocked(op);
  };
  RC_RETURN_IF_ERROR(check_fault(FaultOp::kOpen));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrPrintf("cannot open %s", path.c_str()));
    }
    return Status::Unavailable(StrPrintf("cannot open %s", path.c_str()));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Unavailable(StrPrintf("cannot stat %s", path.c_str()));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < static_cast<std::size_t>(kFileHeaderBytes + kFooterBytes)) {
    ::close(fd);
    return Status::OutOfRange(
        StrPrintf("%s: truncated below header + footer", path.c_str()));
  }
  Status fault = check_fault(FaultOp::kMmap);
  if (!fault.ok()) {
    ::close(fd);
    return fault;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return Status::Internal(StrPrintf("mmap of %s (%zu bytes) failed",
                                      path.c_str(), size));
  }
  auto entries = ParseCheckpointFile(
      path, std::string_view(static_cast<const char*>(map), size));
  if (!entries.ok()) {
    ::munmap(map, size);
    ::close(fd);
    return entries.status();
  }

  // Structure is sound: install the file read-only in the ref space, with
  // the validated mapping as the one fault-ins read through.
  MappedFile f;
  f.path = path;
  f.fd = fd;
  f.writable = false;
  f.file_size = static_cast<std::int64_t>(size);
  f.map = map;
  f.map_size = size;
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int32_t>(files_.size());
  f.refs.reserve(entries->size());
  for (CheckpointEntry& e : *entries) {
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

CheckpointShardWriter::CheckpointShardWriter(int shard,
                                             std::size_t num_cells,
                                             std::size_t block_bytes) {
  // A table row is the key (u8 count + u32 per dimension) plus offset,
  // size and checksum.
  constexpr std::size_t kMaxRowBytes = 1 + 4 * kMaxDims + 3 * 8;
  w_.Reserve(static_cast<std::size_t>(kFileHeaderBytes) + block_bytes +
             num_cells * kMaxRowBytes + static_cast<std::size_t>(kFooterBytes));
  w_.WriteRaw(FileHeader(shard));
  table_.reserve(num_cells);
}

void CheckpointShardWriter::AddFrame(const CellKey& key,
                                     const TiltTimeFrame& frame) {
  const std::size_t offset = w_.size();
  frame.AppendBlock(&w_);
  EndBlock(key, offset);
}

Status CheckpointShardWriter::AddStoredBlock(const CellKey& key,
                                             const FrameStore& store,
                                             const BlockRef& ref) {
  const std::size_t offset = w_.size();
  RC_RETURN_IF_ERROR(store.CopyRawBlock(ref, &w_));
  EndBlock(key, offset);
  return Status::OK();
}

void CheckpointShardWriter::EndBlock(const CellKey& key, std::size_t offset) {
  const std::string_view block = std::string_view(w_.buffer()).substr(offset);
  table_.push_back({key, offset, block.size(), BlockChecksum(block)});
}

std::string CheckpointShardWriter::Finish() && {
  const std::uint64_t table_offset = w_.size();
  for (const TableEntry& e : table_) {
    EncodeCellKey(&w_, e.key);
    w_.WriteU64(e.offset);
    w_.WriteU64(e.size);
    w_.WriteU64(e.checksum);
  }
  w_.WriteU64(table_offset);
  w_.WriteU64(static_cast<std::uint64_t>(table_.size()));
  w_.WriteU32(kTableMagic);
  return w_.Release();
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
