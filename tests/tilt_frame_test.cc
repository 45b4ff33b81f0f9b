#include "regcube/time/tilt_frame.h"

#include <bit>
#include <memory>

#include "gtest/gtest.h"
#include "regcube/common/pcg_random.h"
#include "regcube/io/cube_io.h"
#include "regcube/regression/linear_fit.h"
#include "regcube/time/calendar.h"
#include "test_util.h"
#include "tilt_frame_reference.h"

namespace regcube {
namespace {

using testing_util::ExpectIsbNear;
using testing_util::MustFit;
using testing_util::EncodeFrameBytes;
using testing_util::EncodeTiltFrameState;
using testing_util::ReferenceTiltFrame;
using testing_util::SnapshotOf;
using testing_util::TiltFrameState;

std::shared_ptr<const TiltPolicy> QuarterHourDayPolicy() {
  // Ticks are quarters: hour = 4 ticks, day = 96 ticks.
  return MakeUniformTiltPolicy({{"quarter", 4}, {"hour", 24}, {"day", 31}},
                               {1, 4, 96});
}

TEST(TiltFrameTest, SealsQuartersAndPromotesHours) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  // Feed 8 ticks (2 full hours); tick 8 opens the 3rd hour.
  for (TimeTick t = 0; t <= 8; ++t) {
    ASSERT_TRUE(frame.Add(t, static_cast<double>(t)).ok());
  }
  // Ticks 0..7 sealed as quarters (capacity 4 keeps the last 4).
  EXPECT_EQ(frame.Slots(0).size(), 4u);
  // Two hour slots sealed.
  auto hours = frame.Slots(1);
  ASSERT_EQ(hours.size(), 2u);
  EXPECT_EQ(hours[0].interval.tb, 0);
  EXPECT_EQ(hours[0].interval.te, 3);
  EXPECT_EQ(hours[1].interval.tb, 4);
  EXPECT_EQ(hours[1].interval.te, 7);
  // Hour slot 0 must equal the direct fit of z(t)=t over [0,3].
  ExpectIsbNear(MustFit(TimeSeries(0, {0, 1, 2, 3})), hours[0], 1e-12);
}

TEST(TiltFrameTest, CapacityEvictsOldestSlots) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  for (TimeTick t = 0; t < 40; ++t) {
    ASSERT_TRUE(frame.Add(t, 1.0).ok());
  }
  auto quarters = frame.Slots(0);
  ASSERT_EQ(quarters.size(), 4u);
  // The newest sealed quarter ends at t=38 (t=39 is still open).
  EXPECT_EQ(quarters.back().interval.te, 38);
  EXPECT_EQ(quarters.front().interval.tb, 35);
}

TEST(TiltFrameTest, YearRunRetainsAtMost71SlotsOnCalendarPolicy) {
  // Example 3: after a year of ticks the frame holds <= 4+24+31+12 units.
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeNaturalCalendarTiltPolicy());
  TiltTimeFrame frame(policy, 0);
  // Drive a full year via AdvanceTo (values irrelevant for the count).
  ASSERT_TRUE(frame.Add(0, 1.0).ok());
  ASSERT_TRUE(frame.AdvanceTo(QuarterHourCalendar::kTicksPerYear).ok());
  EXPECT_EQ(frame.RetainedSlots(), 4 + 24 + 31 + 12);
  EXPECT_EQ(frame.TicksSeen(), QuarterHourCalendar::kTicksPerYear);
}

TEST(TiltFrameTest, RegressLastSlotsMatchesDirectFit) {
  // Property: the regression over the last k sealed hours equals the fit
  // of the raw data in that window (lossless tilt-frame storage).
  Pcg32 rng(21);
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  std::vector<double> raw;
  const TimeTick total = 4 * 24;  // one day
  for (TimeTick t = 0; t < total; ++t) {
    double z = 5.0 + 0.02 * static_cast<double>(t) + rng.NextGaussian();
    raw.push_back(z);
    ASSERT_TRUE(frame.Add(t, z).ok());
  }
  ASSERT_TRUE(frame.AdvanceTo(total).ok());

  for (int k : {1, 3, 12, 24}) {
    auto reg = frame.RegressLastSlots(1, k);  // last k hours
    ASSERT_TRUE(reg.ok()) << reg.status().ToString();
    const TimeTick window_start = total - 4 * k;
    std::vector<double> window(raw.begin() + window_start, raw.end());
    Isb direct = MustFit(TimeSeries(window_start, std::move(window)));
    ExpectIsbNear(direct, *reg, 1e-8);
  }
}

TEST(TiltFrameTest, MissingTicksContributeZero) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  // Only tick 1 of the first hour carries data.
  ASSERT_TRUE(frame.Add(1, 8.0).ok());
  ASSERT_TRUE(frame.AdvanceTo(4).ok());
  auto hours = frame.Slots(1);
  ASSERT_EQ(hours.size(), 1u);
  ExpectIsbNear(MustFit(TimeSeries(0, {0.0, 8.0, 0.0, 0.0})), hours[0],
                1e-12);
}

TEST(TiltFrameTest, MultipleObservationsPerTickSum) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  ASSERT_TRUE(frame.Add(0, 1.0).ok());
  ASSERT_TRUE(frame.Add(0, 2.5).ok());
  ASSERT_TRUE(frame.AdvanceTo(4).ok());
  auto quarters = frame.Slots(0);
  ASSERT_EQ(quarters.size(), 4u);
  EXPECT_NEAR(quarters[0].SeriesSum(), 3.5, 1e-12);
}

TEST(TiltFrameTest, RejectsPastTicks) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 10);
  EXPECT_FALSE(frame.Add(9, 1.0).ok());  // before start
  ASSERT_TRUE(frame.Add(15, 1.0).ok());
  EXPECT_FALSE(frame.Add(12, 1.0).ok());  // already sealed region
  EXPECT_TRUE(frame.Add(15, 1.0).ok());   // same tick is fine
}

TEST(TiltFrameTest, PendingSlotTracksPartialUnit) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  ASSERT_TRUE(frame.Add(4, 2.0).ok());  // first tick of hour 2
  ASSERT_TRUE(frame.Add(5, 4.0).ok());
  auto pending = frame.PendingSlot(1);  // hour level
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  EXPECT_EQ(pending->interval.tb, 4);
  EXPECT_EQ(pending->interval.te, 5);
  EXPECT_NEAR(pending->SeriesSum(), 6.0, 1e-12);
}

TEST(TiltFrameTest, RegressAcrossAllRetainedHours) {
  // Aggregating every hour slot must equal the fit over the whole
  // retained window.
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  std::vector<double> raw;
  for (TimeTick t = 0; t < 16; ++t) {  // 4 hours exactly
    double z = static_cast<double>(t % 5);
    raw.push_back(z);
    ASSERT_TRUE(frame.Add(t, z).ok());
  }
  ASSERT_TRUE(frame.AdvanceTo(16).ok());
  auto reg = frame.RegressLastSlots(1, 4);
  ASSERT_TRUE(reg.ok());
  ExpectIsbNear(MustFit(TimeSeries(0, std::move(raw))), *reg, 1e-9);
}

TEST(TiltFrameTest, RegressLastSlotsBoundsChecked) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  ASSERT_TRUE(frame.Add(0, 1.0).ok());
  EXPECT_FALSE(frame.RegressLastSlots(0, 1).ok());  // nothing sealed yet
  ASSERT_TRUE(frame.AdvanceTo(8).ok());
  EXPECT_TRUE(frame.RegressLastSlots(0, 4).ok());
  EXPECT_FALSE(frame.RegressLastSlots(0, 5).ok());  // only 4 retained
  EXPECT_FALSE(frame.RegressLastSlots(0, 0).ok());
}

TEST(TiltFrameTest, MergeStandardDimCombinesCells) {
  auto policy = QuarterHourDayPolicy();
  TiltTimeFrame a(policy, 0), b(policy, 0);
  for (TimeTick t = 0; t < 8; ++t) {
    ASSERT_TRUE(a.Add(t, 1.0 + static_cast<double>(t)).ok());
    ASSERT_TRUE(b.Add(t, 2.0 * static_cast<double>(t)).ok());
  }
  ASSERT_TRUE(a.AdvanceTo(8).ok());
  ASSERT_TRUE(b.AdvanceTo(8).ok());
  ASSERT_TRUE(a.MergeStandardDim(b).ok());
  auto hours = a.Slots(1);
  ASSERT_EQ(hours.size(), 2u);
  // Merged hour 0 = fit of (1+t) + 2t = 1 + 3t over [0,3].
  ExpectIsbNear(MustFit(TimeSeries(0, {1.0, 4.0, 7.0, 10.0})), hours[0],
                1e-9);
}

TEST(TiltFrameTest, MergeRejectsMisalignedFrames) {
  auto policy = QuarterHourDayPolicy();
  TiltTimeFrame a(policy, 0), b(policy, 0);
  ASSERT_TRUE(a.Add(5, 1.0).ok());
  ASSERT_TRUE(b.Add(3, 1.0).ok());
  EXPECT_FALSE(a.MergeStandardDim(b).ok());
}

TEST(TiltFrameTest, FoldSlotsSumsUnits) {
  // 6.2's folding: 8 sealed quarters folded 4-per-bucket (two "hours" of
  // totals), compared against hand-computed sums.
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"quarter", 8}}, {4}));
  TiltTimeFrame frame(policy, 0);
  double bucket_sums[2] = {0.0, 0.0};
  for (TimeTick t = 0; t < 32; ++t) {
    const double z = static_cast<double>(t % 3);
    bucket_sums[t / 16] += z;
    ASSERT_TRUE(frame.Add(t, z).ok());
  }
  ASSERT_TRUE(frame.AdvanceTo(32).ok());
  auto folded = frame.FoldSlots(0, 4, FoldOp::kSum);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  ASSERT_EQ(folded->size(), 2);
  EXPECT_NEAR(folded->at(0), bucket_sums[0], 1e-9);
  EXPECT_NEAR(folded->at(1), bucket_sums[1], 1e-9);
  // Folding with MIN on compressed slots is correctly refused.
  EXPECT_EQ(frame.FoldSlots(0, 4, FoldOp::kMin).status().code(),
            StatusCode::kUnimplemented);
}

TEST(TiltFrameTest, MemoryGrowsThenPlateaus) {
  TiltTimeFrame frame(QuarterHourDayPolicy(), 0);
  ASSERT_TRUE(frame.Add(0, 1.0).ok());
  ASSERT_TRUE(frame.AdvanceTo(8).ok());
  const std::int64_t early = frame.MemoryBytes();
  ASSERT_TRUE(frame.AdvanceTo(96 * 40).ok());  // 40 days
  const std::int64_t late = frame.MemoryBytes();
  ASSERT_TRUE(frame.AdvanceTo(96 * 80).ok());  // 80 days
  const std::int64_t later = frame.MemoryBytes();
  EXPECT_GT(late, early);
  EXPECT_EQ(late, later);  // bounded by capacities
}

// ---- Flat slot block vs the tests-only deque reference model ----------

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameMoments(const MomentSums& want, const MomentSums& got) {
  EXPECT_EQ(want.interval.tb, got.interval.tb);
  EXPECT_EQ(want.interval.te, got.interval.te);
  EXPECT_EQ(Bits(want.sum_z), Bits(got.sum_z));
  EXPECT_EQ(Bits(want.sum_tz), Bits(got.sum_tz));
}

void ExpectSameIsbResult(const Result<Isb>& want, const Result<Isb>& got) {
  ASSERT_EQ(want.ok(), got.ok());
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code());
    EXPECT_EQ(want.status().message(), got.status().message());
    return;
  }
  EXPECT_EQ(want->interval.tb, got->interval.tb);
  EXPECT_EQ(want->interval.te, got->interval.te);
  EXPECT_EQ(Bits(want->base), Bits(got->base));
  EXPECT_EQ(Bits(want->slope), Bits(got->slope));
}

void ExpectSameState(const TiltFrameState& want, const TiltFrameState& got) {
  EXPECT_EQ(want.start_tick, got.start_tick);
  EXPECT_EQ(want.next_tick, got.next_tick);
  ASSERT_EQ(want.levels.size(), got.levels.size());
  for (size_t li = 0; li < want.levels.size(); ++li) {
    const TiltFrameState::Level& w = want.levels[li];
    const TiltFrameState::Level& g = got.levels[li];
    ASSERT_EQ(w.slots.size(), g.slots.size()) << "level " << li;
    for (size_t s = 0; s < w.slots.size(); ++s) {
      ExpectSameMoments(w.slots[s], g.slots[s]);
    }
    ExpectSameMoments(w.pending, g.pending);
    EXPECT_EQ(w.pending_active, g.pending_active);
    EXPECT_EQ(w.pending_start, g.pending_start);
  }
}

/// Every observable of the flat frame against the reference: raw slots and
/// the pending unit on every level, the window regression for every k from
/// 0 to one past the sealed count (the out-of-range errors included), and
/// the block bytes the spill and checkpoint paths write: the library
/// codec's block must equal the byte oracle's encoding of the reference.
void ExpectMatchesReference(const ReferenceTiltFrame& ref,
                            const TiltTimeFrame& frame) {
  ASSERT_EQ(ref.next_tick(), frame.next_tick());
  ASSERT_EQ(ref.RetainedSlots(), frame.RetainedSlots());
  for (int li = 0; li < frame.policy().num_levels(); ++li) {
    const auto& want = ref.RawSlots(li);
    const auto got = frame.RawSlots(li);
    ASSERT_EQ(want.size(), got.size()) << "level " << li;
    for (size_t s = 0; s < want.size(); ++s) {
      ExpectSameMoments(want[s], got[s]);
    }
    ExpectSameIsbResult(ref.PendingSlot(li), frame.PendingSlot(li));
    for (int k = 0; k <= static_cast<int>(want.size()) + 1; ++k) {
      ExpectSameIsbResult(ref.RegressLastSlots(li, k),
                          frame.RegressLastSlots(li, k));
    }
  }
  ExpectSameState(ref.Snapshot(), SnapshotOf(frame));
  EXPECT_EQ(EncodeTiltFrameState(ref.Snapshot()), EncodeFrameBytes(frame));
}

/// One seeded step on both frames: an Add at the open tick or after a jump
/// (sometimes many units long), a bare AdvanceTo, or an Add in the past that
/// both must refuse with the same error.
void RandomStep(Pcg32& rng, TimeTick max_jump, ReferenceTiltFrame& ref,
                TiltTimeFrame& frame) {
  const std::uint32_t kind = rng.Next() % 8;
  TimeTick jump = static_cast<TimeTick>(rng.Next() % 4);
  if (rng.Next() % 10 == 0) {
    jump = static_cast<TimeTick>(rng.Next() % static_cast<std::uint32_t>(
                                                  max_jump + 1));
  }
  const TimeTick t = frame.next_tick() + jump;
  const double z = rng.NextGaussian() * 3.0 + 1.0;
  if (kind < 5) {
    const Status want = ref.Add(t, z);
    const Status got = frame.Add(t, z);
    ASSERT_EQ(want.ok(), got.ok()) << got.ToString();
  } else if (kind < 7) {
    ASSERT_TRUE(ref.AdvanceTo(t).ok());
    ASSERT_TRUE(frame.AdvanceTo(t).ok());
  } else if (frame.next_tick() > 0) {
    const Status want = ref.Add(frame.next_tick() - 1, z);
    const Status got = frame.Add(frame.next_tick() - 1, z);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(want.code(), got.code());
    EXPECT_EQ(want.message(), got.message());
  }
}

struct ReferenceCase {
  const char* name;
  std::shared_ptr<const TiltPolicy> policy;
  TimeTick max_jump;  // long enough to seal several units of every level
  int steps;
};

std::vector<ReferenceCase> ReferenceCases() {
  return {
      {"uniform", QuarterHourDayPolicy(), 400, 300},
      {"logarithmic", MakeLogarithmicTiltPolicy(6, 3), 100, 300},
      {"calendar", MakeNaturalCalendarTiltPolicy(), 6000, 120},
  };
}

TEST(TiltFrameReferenceTest, RandomDriveMatchesBitwise) {
  for (const ReferenceCase& c : ReferenceCases()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      Pcg32 rng(seed);
      const TimeTick start = static_cast<TimeTick>(rng.Next() % 7);
      ReferenceTiltFrame ref(c.policy, start);
      TiltTimeFrame frame(c.policy, start);
      for (int step = 0; step < c.steps; ++step) {
        RandomStep(rng, c.max_jump, ref, frame);
        ExpectMatchesReference(ref, frame);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(TiltFrameReferenceTest, CopiesAreIndependent) {
  for (const ReferenceCase& c : ReferenceCases()) {
    SCOPED_TRACE(c.name);
    Pcg32 rng(11);
    ReferenceTiltFrame ref(c.policy, 0);
    TiltTimeFrame frame(c.policy, 0);
    for (int step = 0; step < c.steps; ++step) {
      RandomStep(rng, c.max_jump, ref, frame);
      if (step % 10 != 0) continue;
      // Drive a copy well past the original (seals, evictions, pending
      // adds); the original must not move.
      TiltTimeFrame copy = frame;
      ReferenceTiltFrame copy_ref = ref;
      for (int i = 0; i < 20; ++i) RandomStep(rng, c.max_jump, copy_ref, copy);
      ExpectMatchesReference(copy_ref, copy);
      ExpectMatchesReference(ref, frame);
      // Copy-assignment over a frame that holds state behaves the same.
      copy = frame;
      ExpectMatchesReference(ref, copy);
      // A writer's copy shares the slot block until it seals; driving it
      // must not move the original either.
      TiltTimeFrame writer = frame.CopyForWrite();
      ReferenceTiltFrame writer_ref = ref;
      for (int i = 0; i < 20; ++i) {
        RandomStep(rng, c.max_jump, writer_ref, writer);
      }
      ExpectMatchesReference(writer_ref, writer);
      ExpectMatchesReference(ref, frame);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TiltFrameReferenceTest, SnapshotRoundTripContinuesBitwise) {
  for (const ReferenceCase& c : ReferenceCases()) {
    SCOPED_TRACE(c.name);
    Pcg32 rng(5);
    ReferenceTiltFrame ref(c.policy, 3);
    TiltTimeFrame frame(c.policy, 3);
    for (int step = 0; step < c.steps; ++step) {
      RandomStep(rng, c.max_jump, ref, frame);
      if (step % 15 != 0) continue;
      auto restored =
          TiltTimeFrame::FromBlock(c.policy, EncodeFrameBytes(frame));
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      ExpectMatchesReference(ref, *restored);
      // The restored frame continues exactly like the original would.
      frame = std::move(*restored);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TiltFrameReferenceTest, CodecCoversEveryLevelShape) {
  // Seeded drives over the three policies, encoding at every step: the
  // library block must equal the oracle's bytes for the reference, and a
  // decoded frame must continue bitwise, also when it was encoded while
  // lagging behind the drive's clock and is caught up only after decode.
  // The shape counters prove the drives reached every level state the
  // codec distinguishes.
  for (const ReferenceCase& c : ReferenceCases()) {
    SCOPED_TRACE(c.name);
    int pending_active = 0, pending_idle = 0, empty = 0, partial = 0,
        full = 0, lagging = 0;
    for (std::uint64_t seed : {21u, 22u}) {
      Pcg32 rng(seed);
      ReferenceTiltFrame ref(c.policy, 1);
      TiltTimeFrame frame(c.policy, 1);
      std::string lag_bytes;
      ReferenceTiltFrame lag_ref = ref;
      for (int step = 0; step < c.steps; ++step) {
        RandomStep(rng, c.max_jump, ref, frame);
        const std::string bytes = EncodeFrameBytes(frame);
        ASSERT_EQ(EncodeTiltFrameState(ref.Snapshot()), bytes);
        const TiltFrameState state = SnapshotOf(frame);
        for (int li = 0; li < c.policy->num_levels(); ++li) {
          const auto& level = state.levels[static_cast<size_t>(li)];
          const int count = static_cast<int>(level.slots.size());
          ++(level.pending_active ? pending_active : pending_idle);
          if (count == 0) {
            ++empty;
          } else if (count == c.policy->level(li).capacity) {
            ++full;
          } else {
            ++partial;
          }
        }
        auto decoded = TiltTimeFrame::FromBlock(c.policy, bytes);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        ASSERT_EQ(EncodeFrameBytes(*decoded), bytes);
        if (step % 9 == 0) {
          // Continue the decoded frame and a reference copy a few steps.
          ReferenceTiltFrame cont_ref = ref;
          Pcg32 cont_rng(seed * 1000 + static_cast<std::uint64_t>(step));
          for (int i = 0; i < 6; ++i) {
            RandomStep(cont_rng, c.max_jump, cont_ref, *decoded);
          }
          ExpectMatchesReference(cont_ref, *decoded);
        }
        if (step % 25 == 0) {
          if (!lag_bytes.empty() && lag_ref.next_tick() < frame.next_tick()) {
            // Decode the frame held back 25 steps ago and catch it up to
            // the drive's clock, the way a restored seal clock aligns a
            // lagging cell.
            auto behind = TiltTimeFrame::FromBlock(c.policy, lag_bytes);
            ASSERT_TRUE(behind.ok()) << behind.status().ToString();
            ASSERT_TRUE(behind->AdvanceTo(frame.next_tick()).ok());
            ASSERT_TRUE(lag_ref.AdvanceTo(frame.next_tick()).ok());
            ExpectMatchesReference(lag_ref, *behind);
            ++lagging;
          }
          lag_bytes = bytes;
          lag_ref = ref;
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    EXPECT_GT(pending_active, 0);
    EXPECT_GT(pending_idle, 0);
    EXPECT_GT(empty, 0);
    EXPECT_GT(partial, 0);
    EXPECT_GT(full, 0);
    EXPECT_GT(lagging, 0);
  }
}

TEST(TiltFrameReferenceTest, MergeStandardDimMatchesBitwise) {
  for (const ReferenceCase& c : ReferenceCases()) {
    SCOPED_TRACE(c.name);
    Pcg32 rng(17);
    ReferenceTiltFrame ref_a(c.policy, 0), ref_b(c.policy, 0);
    TiltTimeFrame a(c.policy, 0), b(c.policy, 0);
    for (int step = 0; step < c.steps; ++step) {
      // Same clock on both sides, different values.
      RandomStep(rng, c.max_jump, ref_a, a);
      const TimeTick now = a.next_tick();
      if (rng.Next() % 2 == 0) {
        const double z = rng.NextGaussian();
        ASSERT_TRUE(ref_b.Add(now, z).ok());
        ASSERT_TRUE(b.Add(now, z).ok());
      } else {
        ASSERT_TRUE(ref_b.AdvanceTo(now).ok());
        ASSERT_TRUE(b.AdvanceTo(now).ok());
      }
      if (step % 10 != 0) continue;
      ReferenceTiltFrame merged_ref = ref_a;
      TiltTimeFrame merged = a;
      ASSERT_TRUE(merged_ref.MergeStandardDim(ref_b).ok());
      ASSERT_TRUE(merged.MergeStandardDim(b).ok());
      ExpectMatchesReference(merged_ref, merged);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace regcube
