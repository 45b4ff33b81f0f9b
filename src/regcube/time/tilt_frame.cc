#include "regcube/time/tilt_frame.h"

#include <algorithm>
#include <array>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
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

TiltFrameState TiltTimeFrame::Snapshot() const {
  TiltFrameState state;
  state.start_tick = start_tick_;
  state.next_tick = next_tick_;
  state.levels.reserve(levels_.size());
  for (const LevelState& level : levels_) {
    TiltFrameState::Level out;
    const std::span<const MomentSums> slots = LevelSlots(level);
    out.slots.assign(slots.begin(), slots.end());
    out.pending = level.pending;
    out.pending_active = level.pending_active;
    out.pending_start = level.pending_start;
    state.levels.push_back(std::move(out));
  }
  return state;
}

Result<TiltTimeFrame> TiltTimeFrame::FromSnapshot(
    std::shared_ptr<const TiltPolicy> policy, const TiltFrameState& state) {
  RC_CHECK(policy != nullptr);
  if (static_cast<int>(state.levels.size()) != policy->num_levels()) {
    return Status::InvalidArgument(StrPrintf(
        "snapshot has %zu levels, policy %s has %d", state.levels.size(),
        policy->name().c_str(), policy->num_levels()));
  }
  if (state.next_tick < state.start_tick) {
    return Status::InvalidArgument("snapshot clock precedes its start tick");
  }
  TiltTimeFrame frame(std::move(policy), state.start_tick);
  frame.next_tick_ = state.next_tick;
  for (size_t li = 0; li < state.levels.size(); ++li) {
    const TiltFrameState::Level& in = state.levels[li];
    LevelState& out = frame.levels_[li];
    if (static_cast<int>(in.slots.size()) > out.capacity) {
      return Status::InvalidArgument(StrPrintf(
          "snapshot level %zu holds %zu slots, capacity is %d", li,
          in.slots.size(), out.capacity));
    }
    std::copy(in.slots.begin(), in.slots.end(),
              frame.slots_.get() + out.offset);
    out.count = static_cast<std::int32_t>(in.slots.size());
    out.pending = in.pending;
    out.pending_active = in.pending_active;
    out.pending_start = in.pending_start;
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
