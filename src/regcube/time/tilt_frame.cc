#include "regcube/time/tilt_frame.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/io/binary_io.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

TiltTimeFrame::TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy,
                             TimeTick start_tick)
    : policy_(std::move(policy)), start_tick_(start_tick),
      next_tick_(start_tick) {
  RC_CHECK(policy_ != nullptr);
  levels_.resize(static_cast<size_t>(policy_->num_levels()));
  std::int32_t offset = 0;
  for (int li = 0; li < policy_->num_levels(); ++li) {
    LevelState& level = levels_[static_cast<size_t>(li)];
    level.pending_start = start_tick_;
    level.offset = offset;
    level.capacity = policy_->level(li).capacity;
    offset += level.capacity;
  }
  slots_ = std::make_shared<MomentSums[]>(static_cast<size_t>(offset));
}

TiltTimeFrame::TiltTimeFrame(const TiltTimeFrame& other, SharedSlots)
    : policy_(other.policy_), levels_(other.levels_), slots_(other.slots_),
      slots_shared_(true), start_tick_(other.start_tick_),
      next_tick_(other.next_tick_) {}

TiltTimeFrame::TiltTimeFrame(const TiltTimeFrame& other)
    : TiltTimeFrame(other, SharedSlots{}) {
  OwnSlots();
}

void TiltTimeFrame::OwnSlots() {
  if (!slots_shared_) return;
  const auto n = static_cast<size_t>(policy_->TotalCapacity());
  auto own = std::make_shared<MomentSums[]>(n);
  std::copy(slots_.get(), slots_.get() + n, own.get());
  slots_ = std::move(own);
  slots_shared_ = false;
}

void TiltTimeFrame::Accumulate(TimeTick t, double z) {
  for (auto& level : levels_) {
    level.pending.Add(t, z);
    level.pending_active = true;
  }
}

void TiltTimeFrame::SealBoundaries(TimeTick t) {
  for (int li = 0; li < policy_->num_levels(); ++li) {
    if (!policy_->IsUnitEnd(li, t)) continue;
    LevelState& level = levels_[static_cast<size_t>(li)];
    MomentSums slot = level.pending;
    // The sealed unit covers its full interval; ticks without observations
    // contributed zero (additive stream semantics).
    slot.interval.tb = level.pending_start;
    slot.interval.te = t;
    OwnSlots();
    MomentSums* first = slots_.get() + level.offset;
    if (level.count == level.capacity) {
      // Full: evict the oldest by shifting the range left by one.
      if (level.capacity > 0) {
        std::copy(first + 1, first + level.capacity, first);
        first[level.capacity - 1] = slot;
      }
    } else {
      first[level.count++] = slot;
    }
    level.pending = MomentSums();
    level.pending_active = false;
    level.pending_start = t + 1;
  }
}

Status TiltTimeFrame::Add(TimeTick t, double z) {
  if (t < start_tick_) {
    return Status::OutOfRange(StrPrintf(
        "tick %lld precedes frame start %lld", static_cast<long long>(t),
        static_cast<long long>(start_tick_)));
  }
  if (t < next_tick_) {
    return Status::OutOfRange(StrPrintf(
        "tick %lld already sealed (next open tick is %lld)",
        static_cast<long long>(t), static_cast<long long>(next_tick_)));
  }
  for (TimeTick s = next_tick_; s < t; ++s) SealBoundaries(s);
  next_tick_ = t;
  Accumulate(t, z);
  return Status::OK();
}

Status TiltTimeFrame::AdvanceTo(TimeTick t) {
  if (t <= next_tick_) return Status::OK();
  for (TimeTick s = next_tick_; s < t; ++s) SealBoundaries(s);
  next_tick_ = t;
  return Status::OK();
}

std::vector<Isb> TiltTimeFrame::Slots(int level) const {
  const std::span<const MomentSums> slots = RawSlots(level);
  std::vector<Isb> out;
  out.reserve(slots.size());
  for (const MomentSums& m : slots) out.push_back(FitFromMoments(m));
  return out;
}

std::span<const MomentSums> TiltTimeFrame::RawSlots(int level) const {
  RC_CHECK(level >= 0 && level < policy_->num_levels());
  return LevelSlots(levels_[static_cast<size_t>(level)]);
}

Result<Isb> TiltTimeFrame::PendingSlot(int level) const {
  RC_CHECK(level >= 0 && level < policy_->num_levels());
  const LevelState& state = levels_[static_cast<size_t>(level)];
  if (state.pending_start > next_tick_ ||
      (state.pending_start == next_tick_ && !state.pending_active)) {
    return Status::NotFound(
        StrPrintf("no partial unit at level %d", level));
  }
  MomentSums m = state.pending;
  m.interval.tb = state.pending_start;
  m.interval.te = next_tick_;
  return FitFromMoments(m);
}

Result<Isb> TiltTimeFrame::RegressLastSlots(int level, int k) const {
  const std::span<const MomentSums> slots = RawSlots(level);
  if (k < 1 || k > static_cast<int>(slots.size())) {
    return Status::OutOfRange(
        StrPrintf("requested %d slots, level %d has %zu sealed", k, level,
                  slots.size()));
  }
  // Typical windows fit the stack buffer; only wider ones touch the heap.
  constexpr int kInlineSlots = 16;
  std::array<Isb, kInlineSlots> inline_children;
  std::vector<Isb> heap_children;
  Isb* children = inline_children.data();
  if (k > kInlineSlots) {
    heap_children.resize(static_cast<size_t>(k));
    children = heap_children.data();
  }
  const std::span<const MomentSums> last = slots.last(static_cast<size_t>(k));
  for (size_t i = 0; i < last.size(); ++i) {
    children[i] = FitFromMoments(last[i]);
  }
  return AggregateTimeDim(
      std::span<const Isb>(children, static_cast<size_t>(k)));
}

Result<TimeSeries> TiltTimeFrame::FoldSlots(int level,
                                            std::int64_t units_per_bucket,
                                            FoldOp op) const {
  RC_CHECK(level >= 0 && level < policy_->num_levels());
  return FoldSummaries(Slots(level), units_per_bucket, op);
}

std::int64_t TiltTimeFrame::RetainedSlots() const {
  std::int64_t total = 0;
  for (const auto& level : levels_) total += level.count;
  return total;
}

std::int64_t TiltTimeFrame::TicksSeen() const {
  return next_tick_ - start_tick_;  // ticks strictly before the open tick
}

std::int64_t TiltTimeFrame::MemoryBytes() const {
  return static_cast<std::int64_t>(sizeof(TiltTimeFrame)) +
         RetainedSlots() * static_cast<std::int64_t>(sizeof(MomentSums));
}

Status TiltTimeFrame::MergeStandardDim(const TiltTimeFrame& other) {
  if (policy_->num_levels() != other.policy_->num_levels() ||
      policy_->name() != other.policy_->name()) {
    return Status::InvalidArgument("tilt policies differ");
  }
  if (next_tick_ != other.next_tick_ || start_tick_ != other.start_tick_) {
    return Status::InvalidArgument(StrPrintf(
        "frames not aligned: [%lld,%lld) vs [%lld,%lld)",
        static_cast<long long>(start_tick_),
        static_cast<long long>(next_tick_),
        static_cast<long long>(other.start_tick_),
        static_cast<long long>(other.next_tick_)));
  }
  for (size_t li = 0; li < levels_.size(); ++li) {
    LevelState& mine = levels_[li];
    const LevelState& theirs = other.levels_[li];
    if (mine.count != theirs.count) {
      return Status::InvalidArgument(
          StrPrintf("level %zu slot counts differ: %d vs %d", li, mine.count,
                    theirs.count));
    }
    const std::span<MomentSums> dst = LevelSlots(mine);
    const std::span<const MomentSums> src = other.LevelSlots(theirs);
    for (size_t s = 0; s < dst.size(); ++s) {
      if (!(dst[s].interval == src[s].interval)) {
        return Status::InvalidArgument(
            StrPrintf("level %zu slot %zu intervals differ", li, s));
      }
      dst[s].sum_z += src[s].sum_z;
      dst[s].sum_tz += src[s].sum_tz;
    }
    mine.pending.sum_z += theirs.pending.sum_z;
    mine.pending.sum_tz += theirs.pending.sum_tz;
    mine.pending_active = mine.pending_active || theirs.pending_active;
  }
  return Status::OK();
}

namespace {

// A block's slots are MomentSums written field by field (tb, te, sum_z,
// sum_tz, each 8 bytes little-endian). On a little-endian host that is the
// struct's own layout, so a level's slots copy as one range both ways.
constexpr bool kMomentsAreWireLayout =
    std::endian::native == std::endian::little &&
    sizeof(MomentSums) == 32 && offsetof(MomentSums, interval) == 0 &&
    offsetof(TimeInterval, tb) == 0 && offsetof(TimeInterval, te) == 8 &&
    offsetof(MomentSums, sum_z) == 16 && offsetof(MomentSums, sum_tz) == 24;
constexpr std::size_t kMomentsBytes = 32;
// Per level: slot count u32 + pending moments + active u8 + pending start.
constexpr std::size_t kLevelHeaderBytes = 4 + kMomentsBytes + 1 + 8;
// magic u32 + start tick + next tick + level count u32.
constexpr std::size_t kFrameHeaderBytes = 4 + 8 + 8 + 4;

void EncodeMomentsRange(ByteWriter* w, const MomentSums* m, std::size_t n) {
  if constexpr (kMomentsAreWireLayout) {
    w->WriteRaw({reinterpret_cast<const char*>(m), n * kMomentsBytes});
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      w->WriteI64(m[i].interval.tb);
      w->WriteI64(m[i].interval.te);
      w->WriteDouble(m[i].sum_z);
      w->WriteDouble(m[i].sum_tz);
    }
  }
}

Status DecodeMomentsRange(ByteReader* r, MomentSums* out, std::size_t n) {
  if constexpr (kMomentsAreWireLayout) {
    RC_ASSIGN_OR_RETURN(std::string_view bytes, r->ReadRaw(n * kMomentsBytes));
    std::memcpy(static_cast<void*>(out), bytes.data(), bytes.size());
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      RC_ASSIGN_OR_RETURN(out[i].interval.tb, r->ReadI64());
      RC_ASSIGN_OR_RETURN(out[i].interval.te, r->ReadI64());
      RC_ASSIGN_OR_RETURN(out[i].sum_z, r->ReadDouble());
      RC_ASSIGN_OR_RETURN(out[i].sum_tz, r->ReadDouble());
    }
  }
  return Status::OK();
}

}  // namespace

std::size_t TiltTimeFrame::BlockSize() const {
  return kFrameHeaderBytes + levels_.size() * kLevelHeaderBytes +
         static_cast<std::size_t>(RetainedSlots()) * kMomentsBytes;
}

void TiltTimeFrame::AppendBlock(ByteWriter* w) const {
  w->WriteU32(kBlockMagic);
  w->WriteI64(start_tick_);
  w->WriteI64(next_tick_);
  w->WriteU32(static_cast<std::uint32_t>(levels_.size()));
  for (const LevelState& level : levels_) {
    w->WriteU32(static_cast<std::uint32_t>(level.count));
    EncodeMomentsRange(w, slots_.get() + level.offset,
                       static_cast<std::size_t>(level.count));
    EncodeMomentsRange(w, &level.pending, 1);
    w->WriteU8(level.pending_active ? 1 : 0);
    w->WriteI64(level.pending_start);
  }
}

Result<TiltTimeFrame> TiltTimeFrame::FromBlock(
    std::shared_ptr<const TiltPolicy> policy, std::string_view block) {
  RC_CHECK(policy != nullptr);
  ByteReader r(block);
  RC_ASSIGN_OR_RETURN(std::uint32_t magic, r.ReadU32());
  if (magic != kBlockMagic) {
    return Status::InvalidArgument(
        StrPrintf("bad magic for tilt frame: got 0x%08x", magic));
  }
  RC_ASSIGN_OR_RETURN(TimeTick start_tick, r.ReadI64());
  RC_ASSIGN_OR_RETURN(TimeTick next_tick, r.ReadI64());
  RC_ASSIGN_OR_RETURN(std::uint32_t num_levels, r.ReadU32());
  if (num_levels != static_cast<std::uint32_t>(policy->num_levels())) {
    return Status::InvalidArgument(StrPrintf(
        "tilt frame block has %u levels, policy %s has %d", num_levels,
        policy->name().c_str(), policy->num_levels()));
  }
  if (next_tick < start_tick) {
    return Status::InvalidArgument(
        "tilt frame block's clock precedes its start tick");
  }
  // The frame's own slot block is the decode target: each level's slots
  // land in its range directly, with no intermediate copy.
  TiltTimeFrame frame(std::move(policy), start_tick);
  frame.next_tick_ = next_tick;
  for (std::size_t li = 0; li < frame.levels_.size(); ++li) {
    LevelState& level = frame.levels_[li];
    RC_ASSIGN_OR_RETURN(std::uint32_t count, r.ReadU32());
    if (count > static_cast<std::uint32_t>(level.capacity)) {
      return Status::InvalidArgument(StrPrintf(
          "tilt frame level %zu holds %u slots, capacity is %d", li, count,
          level.capacity));
    }
    RC_RETURN_IF_ERROR(
        DecodeMomentsRange(&r, frame.slots_.get() + level.offset, count));
    level.count = static_cast<std::int32_t>(count);
    RC_RETURN_IF_ERROR(DecodeMomentsRange(&r, &level.pending, 1));
    RC_ASSIGN_OR_RETURN(std::uint8_t active, r.ReadU8());
    level.pending_active = active != 0;
    RC_ASSIGN_OR_RETURN(level.pending_start, r.ReadI64());
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after tilt frame");
  }
  return frame;
}

std::string TiltTimeFrame::ToString() const {
  std::string out = StrPrintf("TiltTimeFrame(policy=%s, next_tick=%lld)\n",
                              policy_->name().c_str(),
                              static_cast<long long>(next_tick_));
  for (int li = 0; li < policy_->num_levels(); ++li) {
    const LevelState& level = levels_[static_cast<size_t>(li)];
    out += StrPrintf("  %-10s %d/%d slots\n",
                     policy_->level(li).name.c_str(), level.count,
                     level.capacity);
  }
  return out;
}

}  // namespace regcube
