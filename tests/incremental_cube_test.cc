// Incremental cube maintenance contracts: the maintained cube memo
// (IncrementalCubeCache behind ShardedStreamEngine::ComputeCubeShared and
// the facade's cube-side Query kinds) must be bit-identical to from-scratch
// m/o H-cubing (and to the ComputeCubeAllLocks oracle) across shard counts
// {1, 2, 8} under randomized churn; it must survive no-op seals and
// boundary-free alignment without recomputing; churn must invalidate it
// precisely (open-slot churn revalidates, sealed-window churn patches,
// structural changes — new cells, window rolls, a different (level, k) —
// rebuild); its bytes must show up in the facade's memory tracker under
// "cube.memo", and its retained run's frames under
// "cube.memo.pinned_frames"; the error contract must match the
// from-scratch kernels; and concurrent churn + cube queries must be
// race-free (this test runs in the TSan CI job).
//
// The randomized churn and the oracle comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectCellMapsIdentical;
using equivalence::ExpectCubesIdentical;
using equivalence::FreshKeyOutside;
using equivalence::Key2;
using equivalence::ScratchCube;
using equivalence::SmallTiltPolicy;

WorkloadSpec LagSpec(std::int64_t tuples = 150) {
  // ticks 0..7: quarter [0,4) sealed, [4,8) open.
  return ChurnWorkload(tuples, /*ticks=*/8, /*seed=*/47);
}

StreamCubeEngine::Options LagOptions() { return ChurnEngineOptions(); }

CellKey PacerKey() { return Key2(15, 15); }

/// Seeds every generated cell with its ticks 0..7, then drives the global
/// clock to 11 through one pacer cell, so [0,4) and [4,8) are sealed from
/// the aligned view while every seeded cell's own frame still sits at tick
/// 7 — late data at tick 7 then lands in the globally sealed slot [4,8),
/// the out-of-order-across-cells shape the patch path exists for.
void SeedLagging(ShardedStreamEngine& engine, StreamGenerator& gen,
                 TimeTick pacer_tick = 11) {
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.Ingest({PacerKey(), pacer_tick, 1.0}).ok());
}

// ------------------------------------------------------------ equivalence

TEST(IncrementalCubeTest, MaintainedCubeMatchesScratchUnderRandomizedChurn) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  std::vector<CellMap> o_layers;  // cross-shard-count invariance
  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, LagOptions(), shards, pool);
    StreamGenerator gen(spec);
    SeedLagging(engine, gen);

    // One fixed plan (seeded churn): every shard count sees the identical
    // stream, so the final cubes are comparable across engines. The plan
    // mixes every maintenance verdict: late data into the sealed slot
    // (patch), open-slot data (revalidate), and a brand-new cell
    // (structural rebuild).
    equivalence::ChurnPlan plan;
    plan.rounds = 12;
    plan.seed = 91;
    plan.max_dirty_per_round = 40;
    plan.base_tick = 7;
    plan.open_every = 4;
    plan.open_key = PacerKey();
    plan.open_tick = 11;
    plan.fresh_round = 6;
    plan.fresh_key = FreshKeyOutside(gen, 16);

    equivalence::RunChurnRounds(engine, gen.cells(), plan, [&](int) {
      auto maintained = engine.ComputeCubeShared(0, 2);
      ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
      RegressionCube scratch =
          ScratchCube(*schema, engine, LagOptions(), 0, 2);
      ExpectCubesIdentical(scratch, **maintained);
    });

    const auto stats = engine.cube_memo_stats();
    EXPECT_GT(stats.patches, 0) << "churn never exercised the patch path";
    EXPECT_GT(stats.rebuilds, 1) << "structural churn never rebuilt";
    auto last = engine.ComputeCubeShared(0, 2);
    ASSERT_TRUE(last.ok());
    o_layers.push_back((*last)->o_layer());
  }
  // The maintained cube is shard-count invariant, like every other read.
  ExpectCellMapsIdentical(o_layers[0], o_layers[1]);
  ExpectCellMapsIdentical(o_layers[0], o_layers[2]);
}

TEST(IncrementalCubeTest, MatchesAllLocksOracleAcrossShardCounts) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  std::vector<RegressionCube> cubes;
  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(2);
    ShardedStreamEngine engine(*schema, LagOptions(), shards, pool);
    StreamGenerator gen(spec);
    ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

    // Barrier-style flow: everyone is at one clock, so the all-locks
    // oracle's align is a no-op and all three doors must agree bitwise.
    auto maintained = engine.ComputeCubeShared(0, 2);
    ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
    auto locked = engine.ComputeCubeAllLocks(0, 2);
    ASSERT_TRUE(locked.ok()) << locked.status().ToString();
    ExpectCubesIdentical(*locked, **maintained);
    RegressionCube scratch = ScratchCube(*schema, engine, LagOptions(), 0, 2);
    ExpectCubesIdentical(scratch, **maintained);
    cubes.push_back((**maintained).Clone());
  }
  // Shard-count invariance of the maintained cube itself.
  ExpectCubesIdentical(cubes[0], cubes[1]);
  ExpectCubesIdentical(cubes[0], cubes[2]);
}

// ------------------------------------------------------------ memo hygiene

TEST(IncrementalCubeTest, MemoSurvivesNoOpSealsAndBoundaryFreeAlignment) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 4);
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  auto first = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 1);

  // Same revision: a pure hit, the same cube object.
  auto hit = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->get(), first->get());
  EXPECT_EQ(engine.cube_memo_stats().hits, 1);

  // No-op re-seals: the revision does not move, the memo answers as hits.
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 3).ok());
  auto after_seal = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(after_seal.ok());
  EXPECT_EQ(after_seal->get(), first->get());
  EXPECT_EQ(engine.cube_memo_stats().hits, 2);
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 1);

  // Boundary-free alignment: the clock advances inside the open unit
  // ([8,12) here), the revision moves, but no sealed window does — the
  // memo is revalidated in O(changed cells), not recomputed.
  ASSERT_TRUE(engine.SealThrough(10).ok());
  auto aligned = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned->get(), first->get());
  EXPECT_EQ(engine.cube_memo_stats().revalidations, 1);
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 1);

  // Open-slot churn: same verdict, still the same cube object.
  ASSERT_TRUE(engine.Ingest({gen.cells()[0].key, 11, 2.0}).ok());
  auto revalidated = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(revalidated.ok());
  EXPECT_EQ(revalidated->get(), first->get());
  auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.revalidations, 2);
  EXPECT_EQ(stats.patches, 0);
  EXPECT_EQ(stats.rebuilds, 1);
}

TEST(IncrementalCubeTest, SealedWindowChurnPatchesInsteadOfRebuilding) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 4);
  StreamGenerator gen(spec);
  SeedLagging(engine, gen);

  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());

  // Late data into the globally sealed [4,8): exactly the patch shape.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Ingest({gen.cells()[static_cast<size_t>(i)].key, 7,
                               5.0 + i})
                    .ok());
  }
  auto patched = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.patches, 1);
  EXPECT_EQ(stats.rebuilds, 1);
  EXPECT_GT(stats.patched_cells, 0);
  EXPECT_LE(stats.patched_cells, 3);
  ExpectCubesIdentical(ScratchCube(*schema, engine, LagOptions(), 0, 2),
                       **patched);
}

TEST(IncrementalCubeTest, StructuralChangesRebuild) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 4);
  StreamGenerator gen(spec);
  SeedLagging(engine, gen);

  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());

  // A brand-new cell is a structural change: patching cannot reproduce a
  // freshly built tree's chain order, so the memo rebuilds.
  ASSERT_TRUE(engine.Ingest({FreshKeyOutside(gen, 16), 7, 2.0}).ok());
  auto rebuilt = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 2);
  ExpectCubesIdentical(ScratchCube(*schema, engine, LagOptions(), 0, 2),
                       **rebuilt);

  // The by-value export door never evicts a live memo of a different
  // window: ComputeCube(0, 1) computes from scratch on the side, and the
  // memoized (0, 2) cube still answers as a hit.
  auto memoized = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(memoized.ok());
  const auto hits_before = engine.cube_memo_stats().hits;
  ASSERT_TRUE(engine.ComputeCube(0, 1).ok());
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 2);
  auto still = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->get(), memoized->get());
  EXPECT_EQ(engine.cube_memo_stats().hits, hits_before + 1);

  // A different (level, k) through the memo door is a different memo:
  // rebuild.
  ASSERT_TRUE(engine.ComputeCubeShared(0, 1).ok());
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 3);

  // Rolling the window epoch (a new level-0 slot seals) rebuilds too.
  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());
  ASSERT_TRUE(engine.SealThrough(12).ok());  // seals [8,12)
  auto rolled = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(rolled.ok());
  ExpectCubesIdentical(ScratchCube(*schema, engine, LagOptions(), 0, 2),
                       **rolled);
  EXPECT_EQ(engine.cube_memo_stats().patches, 0);
}

TEST(IncrementalCubeTest, PatchedCubeIsImmutableForHolders) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 2);
  StreamGenerator gen(spec);
  SeedLagging(engine, gen);

  auto before = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(before.ok());
  const CellMap m_before = (*before)->m_layer();  // deep copy for comparison

  ASSERT_TRUE(engine.Ingest({gen.cells()[0].key, 7, 9.0}).ok());
  auto after = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(after.ok());

  // The held cube must not have been mutated by the patch (copy-on-write).
  EXPECT_NE(before->get(), after->get());
  ExpectCellMapsIdentical(m_before, (*before)->m_layer());
}

// ----------------------------------------------------------- facade & memory

TEST(IncrementalCubeTest, FacadeCubeQueriesRideTheMemoAndAccountMemory) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetExceptionPolicy(ExceptionPolicy(0.02))
                   .SetShardCount(4)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  auto top = engine.Query(QuerySpec::TopExceptions(5, 0, 2));
  ASSERT_TRUE(top.ok()) << top.status().ToString();

  // The memoized cube's bytes are accounted under "cube.memo".
  bool found = false;
  for (const auto& [category, bytes] : engine.MemoryReport()) {
    if (category == "cube.memo") {
      found = true;
      EXPECT_GT(bytes, 0);
    }
  }
  EXPECT_TRUE(found) << "cube.memo missing from MemoryReport";

  // Facade cube-side answers agree with a snapshot's own from-scratch memo.
  auto snap = engine.TakeSnapshot();
  auto snap_top = snap->Query(QuerySpec::TopExceptions(5, 0, 2));
  ASSERT_TRUE(snap_top.ok());
  EXPECT_EQ(top->cells().size(), snap_top->cells().size());
  for (size_t i = 0; i < top->cells().size(); ++i) {
    EXPECT_EQ(top->cells()[i].key, snap_top->cells()[i].key);
    EXPECT_EQ(top->cells()[i].isb, snap_top->cells()[i].isb);
  }
}

// The memo's retained run pins its frame blocks past any engine-side
// eviction, so they are accounted under their own category: sized when a
// run is installed, moved on a tracker swap, released on Invalidate and
// when the memo is destroyed.
TEST(IncrementalCubeTest, PinnedFramesAreAccountedAndMoveBetweenTrackers) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  constexpr char kPinned[] = "cube.memo.pinned_frames";
  MemoryTracker first;
  MemoryTracker second;
  {
    ShardedStreamEngine engine(*schema, LagOptions(), 2);
    engine.set_memory_tracker(&first);
    StreamGenerator gen(spec);
    SeedLagging(engine, gen);
    EXPECT_EQ(first.category_bytes(kPinned), 0);

    // The memo's run is the gather cached at the memo's revision.
    auto run_frame_bytes = [&engine] {
      std::int64_t bytes = 0;
      for (const CellSnapshot& cell : *engine.GatherAlignedCells().cells) {
        bytes += cell.frame->MemoryBytes();
      }
      return bytes;
    };
    ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());
    const std::int64_t frame_bytes = run_frame_bytes();
    EXPECT_GT(frame_bytes, 0);
    EXPECT_EQ(first.category_bytes(kPinned), frame_bytes);

    engine.set_memory_tracker(&second);
    EXPECT_EQ(first.category_bytes(kPinned), 0);
    EXPECT_EQ(second.category_bytes(kPinned), frame_bytes);

    // A patch installs a new run; its bytes move by the changed frames.
    ASSERT_TRUE(engine.Ingest({gen.cells()[0].key, 7, 9.0}).ok());
    ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());
    EXPECT_EQ(engine.cube_memo_stats().patches, 1);
    EXPECT_EQ(second.category_bytes(kPinned), run_frame_bytes());
  }
  EXPECT_EQ(second.category_bytes(kPinned), 0);
  EXPECT_EQ(second.category_bytes("cube.memo"), 0);
}

// ------------------------------------------------------------ error contract

TEST(IncrementalCubeTest, ErrorContractMatchesFromScratch) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 2);

  // Empty engine: the legacy no-data error.
  auto empty = engine.ComputeCubeShared(0, 2);
  EXPECT_EQ(empty.status().code(), StatusCode::kFailedPrecondition);

  StreamGenerator gen(spec);
  SeedLagging(engine, gen);

  // More slots than are sealed: the window error propagates verbatim, and
  // the failed attempt must not poison the memo for valid queries.
  auto too_deep = engine.ComputeCubeShared(0, 64);
  EXPECT_FALSE(too_deep.ok());
  auto run = engine.GatherAlignedCells();
  auto scratch = SnapshotCubeOf(*schema, *run.cells, LagOptions(), 0, 64,
                                nullptr);
  EXPECT_EQ(too_deep.status().code(), scratch.status().code());
  EXPECT_EQ(too_deep.status().message(), scratch.status().message());

  auto ok = engine.ComputeCubeShared(0, 2);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ------------------------------------------------------------- concurrency

TEST(IncrementalCubeTest, ConcurrentChurnAndCubeQueriesAreRaceFree) {
  WorkloadSpec spec = LagSpec(80);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto pool = std::make_shared<ThreadPool>(3);
  ShardedStreamEngine engine(*schema, LagOptions(), 4, pool);
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  SeedLagging(engine, gen);
  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      // Late data into the sealed slot and fresh data into the open one;
      // disjoint cell slices keep per-cell ticks monotone.
      for (int round = 0; !stop.load(std::memory_order_relaxed); ++round) {
        for (size_t c = static_cast<size_t>(w); c < cells.size(); c += 2) {
          const TimeTick tick = (c % 3 == 0) ? 7 : 8;
          Status s = engine.Ingest({cells[c].key, tick, 1.0 + round});
          if (!s.ok()) {
            // A cell that moved to the open slot rejects later tick-7
            // writes; that is the monotonicity contract, not a bug.
            EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << s.ToString();
          }
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto cube = engine.ComputeCubeShared(0, 2);
        ASSERT_TRUE(cube.ok()) << cube.status().ToString();
        EXPECT_GE((*cube)->m_layer().size(), cells.size());
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();

  RegressionCube scratch = ScratchCube(*schema, engine, LagOptions(), 0, 2);
  auto final_cube = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(final_cube.ok());
  ExpectCubesIdentical(scratch, **final_cube);
}

}  // namespace
}  // namespace regcube
