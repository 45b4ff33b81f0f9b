#include "regcube/io/cube_io.h"

#include <cstdio>

#include "gtest/gtest.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/io/binary_io.h"
#include "test_util.h"
#include "tilt_frame_state.h"

namespace regcube {
namespace {

using testing_util::EncodeFrameBytes;
using testing_util::EncodeTiltFrameState;
using testing_util::ExpectCellMapsEqual;
using testing_util::ExpectIsbNear;
using testing_util::MakeSmallWorkload;
using testing_util::FrameFromState;
using testing_util::SmallWorkload;
using testing_util::SnapshotOf;
using testing_util::TiltFrameState;

TEST(ByteIoTest, WritesLittleEndianOnAnyHost) {
  ByteWriter w;
  w.Reserve(12);
  w.WriteU32(0x01020304u);
  w.WriteU64(0x0A0B0C0D0E0F1011ull);
  EXPECT_EQ(w.buffer(), std::string("\x04\x03\x02\x01\x11\x10\x0F\x0E"
                                    "\x0D\x0C\x0B\x0A",
                                    12));
}

TEST(ByteIoTest, PrimitiveRoundTrips) {
  ByteWriter w;
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI64(-42);
  w.WriteDouble(3.14159);
  w.WriteString("hello");

  ByteReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.14159);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIoTest, TruncationDetected) {
  ByteWriter w;
  w.WriteU64(1);
  std::string data = w.Release();
  data.resize(3);  // cut mid-integer
  ByteReader r(data);
  EXPECT_EQ(r.ReadU64().status().code(), StatusCode::kOutOfRange);
}

TEST(ByteIoTest, StringLengthBoundsChecked) {
  ByteWriter w;
  w.WriteU32(1000);  // length prefix larger than the payload
  w.WriteU8('x');
  ByteReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(ByteIoTest, SpecialDoublesSurvive) {
  ByteWriter w;
  w.WriteDouble(0.0);
  w.WriteDouble(-0.0);
  w.WriteDouble(1e308);
  w.WriteDouble(-1e-308);
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.ReadDouble(), 0.0);
  EXPECT_EQ(*r.ReadDouble(), -0.0);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 1e308);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), -1e-308);
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/regcube_io_test.bin";
  const std::string payload = "binary\0payload";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadFile("/nonexistent/regcube").status().code(),
            StatusCode::kNotFound);
}

TEST(TupleIoTest, RoundTrip) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 3, 50, 201);
  std::string encoded = EncodeMLayerTuples(w.tuples);
  auto decoded = DecodeMLayerTuples(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), w.tuples.size());
  for (size_t i = 0; i < w.tuples.size(); ++i) {
    EXPECT_EQ((*decoded)[i].key, w.tuples[i].key);
    ExpectIsbNear(w.tuples[i].measure, (*decoded)[i].measure, 0.0);
  }
}

TEST(TupleIoTest, RejectsBadMagicTruncationAndTrailingBytes) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 10, 203);
  std::string encoded = EncodeMLayerTuples(w.tuples);

  std::string bad_magic = encoded;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeMLayerTuples(bad_magic).ok());

  std::string truncated = encoded.substr(0, encoded.size() - 3);
  EXPECT_FALSE(DecodeMLayerTuples(truncated).ok());

  std::string trailing = encoded + "junk";
  EXPECT_FALSE(DecodeMLayerTuples(trailing).ok());
}

TEST(TupleIoTest, CorruptCountRejectedWithoutAllocating) {
  ByteWriter w;
  w.WriteU32(0x31544752);  // tuples magic
  w.WriteU64(std::uint64_t{1} << 60);  // absurd count
  EXPECT_FALSE(DecodeMLayerTuples(w.buffer()).ok());
}

TEST(CubeIoTest, FullCubeRoundTrip) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 3, 80, 207);
  MoCubingOptions options;
  options.policy = ExceptionPolicy(0.02);
  auto cube = ComputeMoCubing(w.schema, w.tuples, options);
  ASSERT_TRUE(cube.ok());

  std::string encoded = EncodeRegressionCube(*cube);
  auto decoded = DecodeRegressionCube(w.schema, encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  ExpectCellMapsEqual(cube->m_layer(), decoded->m_layer(), 0.0);
  ExpectCellMapsEqual(cube->o_layer(), decoded->o_layer(), 0.0);
  EXPECT_EQ(cube->exceptions().total_cells(),
            decoded->exceptions().total_cells());
  for (CuboidId c : cube->exceptions().Cuboids()) {
    const CellMap* original = cube->exceptions().CellsOf(c);
    const CellMap* restored = decoded->exceptions().CellsOf(c);
    ASSERT_NE(restored, nullptr);
    ExpectCellMapsEqual(*original, *restored, 0.0);
  }
}

TEST(CubeIoTest, SchemaMismatchRejected) {
  SmallWorkload w2 = MakeSmallWorkload(2, 2, 3, 20, 211);
  SmallWorkload w3 = MakeSmallWorkload(3, 2, 3, 20, 211);
  MoCubingOptions options;
  auto cube = ComputeMoCubing(w2.schema, w2.tuples, options);
  ASSERT_TRUE(cube.ok());
  std::string encoded = EncodeRegressionCube(*cube);
  // Decoding a 2-dim cube against a 3-dim schema must fail cleanly.
  EXPECT_FALSE(DecodeRegressionCube(w3.schema, encoded).ok());
  EXPECT_FALSE(DecodeRegressionCube(nullptr, encoded).ok());
}

TEST(TiltFrameIoTest, CheckpointRestoreContinuesExactly) {
  auto policy = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"quarter", 4}, {"hour", 24}}, {1, 4}));

  // Drive a frame halfway, checkpoint, restore, then feed both the same
  // remaining data: all queries must agree exactly.
  TiltTimeFrame original(policy, 0);
  for (TimeTick t = 0; t < 50; ++t) {
    ASSERT_TRUE(original.Add(t, 0.5 * static_cast<double>(t % 7)).ok());
  }

  const std::string encoded = EncodeFrameBytes(original);
  EXPECT_EQ(encoded.size(), original.BlockSize());
  auto restored = TiltTimeFrame::FromBlock(policy, encoded);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  for (TimeTick t = 50; t < 100; ++t) {
    const double z = 1.0 + 0.1 * static_cast<double>(t % 5);
    ASSERT_TRUE(original.Add(t, z).ok());
    ASSERT_TRUE(restored->Add(t, z).ok());
  }
  ASSERT_TRUE(original.AdvanceTo(100).ok());
  ASSERT_TRUE(restored->AdvanceTo(100).ok());

  EXPECT_EQ(original.RetainedSlots(), restored->RetainedSlots());
  for (int level = 0; level < policy->num_levels(); ++level) {
    auto a = original.Slots(level);
    auto b = restored->Slots(level);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ExpectIsbNear(a[i], b[i], 0.0);
  }
  auto reg_a = original.RegressLastSlots(1, 10);
  auto reg_b = restored->RegressLastSlots(1, 10);
  ASSERT_TRUE(reg_a.ok());
  ASSERT_TRUE(reg_b.ok());
  ExpectIsbNear(*reg_a, *reg_b, 0.0);
  EXPECT_EQ(EncodeFrameBytes(original), EncodeFrameBytes(*restored));
}

TEST(TiltFrameIoTest, DecodeRejectsEveryCorruptField) {
  auto policy2 = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"a", 4}, {"b", 4}}, {1, 4}));
  auto policy3 = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"a", 4}, {"b", 4}, {"c", 4}}, {1, 4, 16}));
  TiltTimeFrame frame(policy2, 0);
  for (TimeTick t = 0; t < 9; ++t) {
    ASSERT_TRUE(frame.Add(t, 1.0 + static_cast<double>(t)).ok());
  }
  const TiltFrameState state = SnapshotOf(frame);
  const std::string good = EncodeTiltFrameState(state);
  ASSERT_EQ(good, EncodeFrameBytes(frame));
  ASSERT_TRUE(TiltTimeFrame::FromBlock(policy2, good).ok());

  auto expect_invalid = [](const Result<TiltTimeFrame>& got,
                           const char* what) {
    ASSERT_FALSE(got.ok()) << what;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << got.status().ToString();
  };
  // Bad magic.
  std::string bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
  expect_invalid(TiltTimeFrame::FromBlock(policy2, bad_magic), "bad magic");
  // Level count other than the policy's, both ways.
  expect_invalid(TiltTimeFrame::FromBlock(policy3, good),
                 "fewer levels than policy");
  TiltFrameState extra_level = state;
  extra_level.levels.push_back(state.levels.back());
  expect_invalid(FrameFromState(policy2, extra_level),
                 "more levels than policy");
  // Slot count over a level's capacity (level 0 holds 4).
  TiltFrameState bloated = state;
  while (bloated.levels[0].slots.size() <= 4) {
    bloated.levels[0].slots.push_back(MomentSums{{0, 0}, 1.0, 0.0});
  }
  expect_invalid(FrameFromState(policy2, bloated), "slots over capacity");
  // Clock before the start tick.
  TiltFrameState warped = state;
  warped.next_tick = warped.start_tick - 1;
  expect_invalid(FrameFromState(policy2, warped), "next_tick < start_tick");
  // Trailing bytes.
  expect_invalid(TiltTimeFrame::FromBlock(policy2, good + std::string(1, '\0')),
                 "trailing bytes");
}

TEST(TiltFrameIoTest, EveryTruncationIsTyped) {
  auto policy = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"q", 4}, {"h", 6}}, {1, 4}));
  TiltTimeFrame frame(policy, 0);
  for (TimeTick t = 0; t < 30; ++t) {
    ASSERT_TRUE(frame.Add(t, static_cast<double>(t)).ok());
  }
  const std::string encoded = EncodeFrameBytes(frame);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto got = TiltTimeFrame::FromBlock(
        policy, std::string_view(encoded).substr(0, cut));
    ASSERT_FALSE(got.ok()) << "cut at " << cut;
    EXPECT_TRUE(got.status().code() == StatusCode::kOutOfRange ||
                got.status().code() == StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << got.status().ToString();
  }
}

TEST(TiltFrameIoTest, EncodedBlockSurvivesDisk) {
  auto policy = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"q", 4}}, {1}));
  TiltTimeFrame frame(policy, 10);
  for (TimeTick t = 10; t < 30; ++t) {
    ASSERT_TRUE(frame.Add(t, static_cast<double>(t)).ok());
  }
  const std::string path = ::testing::TempDir() + "/regcube_frame.bin";
  ASSERT_TRUE(WriteFile(path, EncodeFrameBytes(frame)).ok());
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  auto restored = TiltTimeFrame::FromBlock(policy, *data);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->next_tick(), frame.next_tick());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace regcube
