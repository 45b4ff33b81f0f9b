// Incremental cube maintenance contracts: the maintained cube memo
// (IncrementalCubeCache behind ShardedStreamEngine::ComputeCubeShared and
// the facade's cube-side Query kinds) must be bit-identical to from-scratch
// m/o H-cubing (and to the reference store's cube) across shard counts
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
#include <chrono>
#include <future>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {

// Holds the memo's mutex the way maintenance (a patch or a rebuild) holds
// it.
class IncrementalCubeCacheTestPeer {
 public:
  static std::mutex& Mutex(IncrementalCubeCache& memo) { return memo.mu_; }
};

namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectCellMapsIdentical;
using equivalence::ExpectCubesIdentical;
using equivalence::FreshKeyOutside;
using equivalence::Key2;
using equivalence::ScratchCube;
using equivalence::SmallTiltPolicy;
using equivalence::UnusedMLayerKey;

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

// The maintained cube against the reference store at 1, 2 and 8 shards:
// once the global clock has sealed the window, after late data into the sealed window (the first patch
// indexes each touched cuboid of the memo's tree; three late cells touch
// at most three cells per cuboid), after a second patch on the same tree
// (it reuses those indexes), and after a new cell rebuilds (the patch
// after it indexes the rebuilt tree afresh), and after every cell seals.
TEST(IncrementalCubeTest, MatchesReferenceStoreAcrossShardCounts) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  std::vector<RegressionCube> cubes;
  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    auto pool = std::make_shared<ThreadPool>(2);
    ShardedStreamEngine engine(*schema, LagOptions(), shards, pool);
    testing_util::ReferenceStore reference(*schema, LagOptions());
    StreamGenerator gen(spec);
    const std::vector<StreamTuple> stream = gen.GenerateStream();
    ASSERT_TRUE(engine.IngestBatch(stream).ok());
    ASSERT_TRUE(reference.IngestBatch(stream).ok());
    auto ingest = [&](const StreamTuple& tuple) {
      ASSERT_TRUE(engine.Ingest(tuple).ok());
      ASSERT_TRUE(reference.Ingest(tuple).ok());
    };
    auto late = [&](std::initializer_list<size_t> cells, double value) {
      for (size_t i : cells) ingest({gen.cells()[i].key, 7, value + i});
    };
    // The maintained cube, the from-scratch cube over the engine's own
    // gather and the reference store's cube must agree bitwise.
    auto expect_matches = [&](std::int64_t patches, std::int64_t rolls,
                              std::int64_t rebuilds) {
      auto maintained = engine.ComputeCubeShared(0, 2);
      ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
      auto want = reference.ComputeCube(0, 2);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectCubesIdentical(*want, **maintained);
      RegressionCube scratch =
          ScratchCube(*schema, engine, LagOptions(), 0, 2);
      ExpectCubesIdentical(scratch, **maintained);
      const auto stats = engine.cube_memo_stats();
      EXPECT_EQ(stats.patches, patches);
      EXPECT_EQ(stats.rolls, rolls);
      EXPECT_EQ(stats.rebuilds, rebuilds);
    };
    // The pacer drives the global clock to 11: [4,8) is sealed from the
    // aligned view while every generated cell's frame still sits at 7.
    ingest({PacerKey(), 11, 1.0});
    expect_matches(/*patches=*/0, /*rolls=*/0, /*rebuilds=*/1);
    late({0, 1, 2}, 5.0);
    expect_matches(1, 0, 1);
    late({0, 3, 4}, 8.0);
    expect_matches(2, 0, 1);
    // A new cell early in canonical order: the rebuilt tree's node ids
    // differ from the old tree's.
    ingest({UnusedMLayerKey(gen), 7, 3.0});
    expect_matches(2, 0, 2);
    late({5, 6}, 2.0);
    expect_matches(3, 0, 2);
    // Sealing [8,12) moves every cell's window to [4,12): the kept tree
    // rolls.
    ASSERT_TRUE(engine.SealThrough(11).ok());
    ASSERT_TRUE(reference.SealThrough(11).ok());
    expect_matches(3, 1, 2);

    auto last = engine.ComputeCubeShared(0, 2);
    ASSERT_TRUE(last.ok());
    cubes.push_back((**last).Clone());
  }
  // Shard-count invariance of the maintained cube itself.
  ExpectCubesIdentical(cubes[0], cubes[1]);
  ExpectCubesIdentical(cubes[0], cubes[2]);
}

/// What the memo must account under "cube.memo" for `cube` over the
/// engine's current run: the kept tree (rebuilt here over the same keys:
/// its footprint is structural), the window, the cube, and — once a patch
/// or roll has built them — every non-m cuboid's fold index.
std::int64_t ExpectedMemoBytes(const CubeSchema& schema,
                               ShardedStreamEngine& engine,
                               const RegressionCube& cube,
                               bool with_indexes) {
  const auto run = engine.GatherAlignedCells();
  std::vector<MLayerTuple> window;
  for (const CellSnapshot& cell : *run.cells) {
    window.push_back(MLayerTuple{cell.key, Isb{TimeInterval{0, 7}, 0, 0}});
  }
  HTree::Options options;
  options.attribute_order = CardinalityAscendingOrder(schema);
  options.store_nonleaf_measures = true;
  auto tree = HTree::Build(schema, window, std::move(options));
  RC_CHECK(tree.ok()) << tree.status().ToString();
  std::int64_t bytes =
      tree->MemoryBytes() +
      static_cast<std::int64_t>(window.size() * sizeof(MLayerTuple)) +
      CellMapMemoryBytes(cube.m_layer()) + CellMapMemoryBytes(cube.o_layer()) +
      cube.exceptions().MemoryBytes();
  const CuboidLattice& lattice = cube.lattice();
  for (CuboidId c = 0; with_indexes && c < lattice.num_cuboids(); ++c) {
    if (c == lattice.m_layer_id()) continue;
    bytes += CuboidFoldIndex::Build(*tree, lattice, c).MemoryBytes();
  }
  return bytes;
}

// Patches and rolls share one fold index per cuboid: on one memo at 1, 2
// and 8 shards, a patch builds the indexes and a roll reuses them, a patch
// after that roll reuses them again, and after a rebuild drops them, a
// roll builds them and the next patch reuses those. Every step is bitwise
// the reference store's cube and the from-scratch cube, and the memo's
// bytes include the indexes exactly while they exist. Rolls here come
// from the pacer alone: the aligned view seals the next quarter while the
// cells' own frames lag, so late data can still patch after each roll.
TEST(IncrementalCubeTest, PatchesAndRollsShareOneFoldIndexPerCuboid) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    auto pool = std::make_shared<ThreadPool>(2);
    ShardedStreamEngine engine(*schema, LagOptions(), shards, pool);
    testing_util::ReferenceStore reference(*schema, LagOptions());
    StreamGenerator gen(spec);
    const std::vector<StreamTuple> stream = gen.GenerateStream();
    ASSERT_TRUE(engine.IngestBatch(stream).ok());
    ASSERT_TRUE(reference.IngestBatch(stream).ok());
    auto ingest = [&](const StreamTuple& tuple) {
      ASSERT_TRUE(engine.Ingest(tuple).ok());
      ASSERT_TRUE(reference.Ingest(tuple).ok());
    };
    auto late = [&](std::initializer_list<size_t> cells, TimeTick tick) {
      for (size_t i : cells) {
        ingest({gen.cells()[i].key, tick, 2.0 + static_cast<double>(i)});
      }
    };
    auto expect_matches = [&](std::int64_t patches, std::int64_t rolls,
                              std::int64_t rebuilds, bool indexed) {
      auto maintained = engine.ComputeCubeShared(0, 2);
      ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
      auto want = reference.ComputeCube(0, 2);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectCubesIdentical(*want, **maintained);
      ExpectCubesIdentical(ScratchCube(*schema, engine, LagOptions(), 0, 2),
                           **maintained);
      const auto stats = engine.cube_memo_stats();
      EXPECT_EQ(stats.patches, patches);
      EXPECT_EQ(stats.rolls, rolls);
      EXPECT_EQ(stats.rebuilds, rebuilds);
      EXPECT_EQ(engine.CubeMemoBytes(),
                ExpectedMemoBytes(**schema, engine, **maintained, indexed));
    };
    ingest({PacerKey(), 11, 1.0});  // window [0,8)
    expect_matches(/*patches=*/0, /*rolls=*/0, /*rebuilds=*/1,
                   /*indexed=*/false);
    late({0, 1, 2}, 7);
    expect_matches(1, 0, 1, true);
    ingest({PacerKey(), 15, 1.0});  // window [4,12)
    expect_matches(1, 1, 1, true);
    late({0, 3, 4}, 9);
    expect_matches(2, 1, 1, true);
    ingest({PacerKey(), 19, 1.0});  // window [8,16)
    expect_matches(2, 2, 1, true);
    ingest({UnusedMLayerKey(gen), 17, 3.0});
    expect_matches(2, 2, 2, false);
    ingest({PacerKey(), 23, 1.0});  // window [12,20)
    expect_matches(2, 3, 2, true);
    late({5, 6}, 17);
    expect_matches(3, 3, 2, true);
  }
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

  // Rolling the window epoch (a new level-0 slot seals) keeps the
  // population, so the (0, 2) memo rebuilt once more for the window switch
  // rolls instead of rebuilding.
  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());
  EXPECT_EQ(engine.cube_memo_stats().rebuilds, 4);
  ASSERT_TRUE(engine.SealThrough(12).ok());  // seals [8,12)
  auto rolled = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(rolled.ok());
  ExpectCubesIdentical(ScratchCube(*schema, engine, LagOptions(), 0, 2),
                       **rolled);
  const auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.rolls, 1);
  EXPECT_EQ(stats.rebuilds, 4);
  EXPECT_EQ(stats.patches, 0);
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

// ------------------------------------------------------------- epoch rolls

// Ticks [0, 64) for every cell and sealed: 16 quarters (8 retained at
// level 0) and 4 hours at level 1, so k up to 4 is valid at both levels.
constexpr TimeTick kRollSeedTicks = 64;

WorkloadSpec RollSpec(int num_dims = 2) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/120, kRollSeedTicks,
                                    /*seed=*/61);
  spec.num_dims = num_dims;
  return spec;
}

/// A 3-dim schema for RollSpec(3)'s keys whose codec would need 67 bits:
/// dims A and B are the workload's fanout-4 hierarchies, and C's level-2
/// cardinality is 2^56, so no key packs and every kernel takes the CellKey
/// path. The generated values (0..15) are valid under it.
std::shared_ptr<const CubeSchema> WideRollSchema() {
  auto narrow = std::make_shared<FanoutHierarchy>(2, 4);
  auto wide = std::make_shared<FanoutHierarchy>(2, 1 << 28);
  auto schema = CubeSchema::Create(
      {Dimension("A", narrow), Dimension("B", narrow), Dimension("C", wide)},
      {2, 2, 2}, {1, 1, 1});
  RC_CHECK(schema.ok()) << schema.status().ToString();
  RC_CHECK(!PackedKeyCodec::ForSchema(*schema).has_value());
  return std::make_shared<CubeSchema>(std::move(schema).value());
}

/// Seeds `engine` with every cell's ticks [0, 64) and seals them.
void SeedRollEngine(ShardedStreamEngine& engine, StreamGenerator& gen) {
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(kRollSeedTicks - 1).ok());
}

/// One roll round: random dirty cells each take one value inside quarter
/// `quarter`, then the quarter seals — a level-0 epoch roll for every
/// cell, and a level-1 roll too when the quarter ends an hour.
void RollRound(ShardedStreamEngine& engine,
               const std::vector<StreamGenerator::CellParams>& cells,
               TimeTick quarter, Pcg32& rng) {
  const TimeTick begin = quarter * 4;
  for (const auto& cell : cells) {
    if (rng.Uniform(4) != 0) continue;  // ~25% dirty
    const TimeTick tick = begin + static_cast<TimeTick>(rng.Uniform(4));
    const double value = 1.0 + static_cast<double>(rng.Uniform(1000));
    ASSERT_TRUE(engine.Ingest({cell.key, tick, value}).ok());
  }
  ASSERT_TRUE(engine.SealThrough(begin + 3).ok());
}

/// Every round seals a level-0 slot, so the engine's (0, k) memo rolls
/// each round; every 4th round cascades into level 1, where a second memo
/// (fed the engine's own gathers) rolls. Each query is bitwise the
/// from-scratch cube over the same gather.
void ExpectRollsMatchScratch(std::shared_ptr<const CubeSchema> schema,
                             const WorkloadSpec& spec, int shards,
                             bool with_pool, int k) {
  SCOPED_TRACE(testing::Message() << shards << " shards, pool " << with_pool
                                  << ", k " << k);
  const StreamCubeEngine::Options options = LagOptions();
  auto pool = with_pool ? std::make_shared<ThreadPool>(3) : nullptr;
  ShardedStreamEngine engine(schema, options, shards, pool);
  StreamGenerator gen(spec);
  SeedRollEngine(engine, gen);
  IncrementalCubeCache hour_memo(schema, options);
  auto query_hours = [&] {
    const auto run = engine.GatherAlignedCells();
    auto maintained = hour_memo.CubeFor(run.cells, run.clock, run.revision,
                                        1, k, pool.get());
    ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
    ExpectCubesIdentical(ScratchCube(schema, engine, options, 1, k),
                         **maintained);
  };
  ASSERT_TRUE(engine.ComputeCubeShared(0, k).ok());
  query_hours();

  std::int64_t exceptions_seen = 0;  // the exception set takes part
  Pcg32 rng(71);
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    const TimeTick quarter = kRollSeedTicks / 4 + round;
    RollRound(engine, gen.cells(), quarter, rng);
    auto maintained = engine.ComputeCubeShared(0, k);
    ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
    const RegressionCube scratch = ScratchCube(schema, engine, options, 0, k);
    ExpectCubesIdentical(scratch, **maintained);
    exceptions_seen += scratch.exceptions().total_cells();
    if ((quarter + 1) % 4 == 0) query_hours();  // the hour sealed too
  }
  EXPECT_GT(exceptions_seen, 0);
  const auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.rebuilds, 1);
  EXPECT_EQ(stats.rolls, kRounds);
  EXPECT_EQ(stats.patches, 0);
  EXPECT_EQ(hour_memo.stats().rebuilds, 1);
  EXPECT_EQ(hour_memo.stats().rolls, kRounds / 4);
}

TEST(IncrementalCubeTest, RollsMatchScratchAcrossShardsPoolsAndSlots) {
  const WorkloadSpec spec = RollSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(PackedKeyCodec::ForSchema(**schema).has_value());
  for (int shards : {1, 2, 8}) {
    for (bool with_pool : {false, true}) {
      for (int k : {1, 2, 4}) {
        ExpectRollsMatchScratch(*schema, spec, shards, with_pool, k);
      }
    }
  }
}

TEST(IncrementalCubeTest, RollsMatchScratchOnASchemaTooWideToPack) {
  const WorkloadSpec spec = RollSpec(/*num_dims=*/3);
  const auto schema = WideRollSchema();
  for (int shards : {1, 2, 8}) {
    for (bool with_pool : {false, true}) {
      for (int k : {1, 2, 4}) {
        ExpectRollsMatchScratch(schema, spec, shards, with_pool, k);
      }
    }
  }
}

// A new cell in the same round as a roll is still a structural change.
TEST(IncrementalCubeTest, RollWithAFreshCellRebuilds) {
  const WorkloadSpec spec = RollSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 2);
  StreamGenerator gen(spec);
  SeedRollEngine(engine, gen);
  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());

  Pcg32 rng(5);
  ASSERT_TRUE(engine.Ingest({FreshKeyOutside(gen, 16), 64, 4.0}).ok());
  RollRound(engine, gen.cells(), kRollSeedTicks / 4, rng);
  auto rebuilt = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ExpectCubesIdentical(ScratchCube(*schema, engine, LagOptions(), 0, 2),
                       **rebuilt);
  auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.rebuilds, 2);
  EXPECT_EQ(stats.rolls, 0);

  // The next roll over the grown population rolls the rebuilt tree.
  RollRound(engine, gen.cells(), kRollSeedTicks / 4 + 1, rng);
  auto rolled = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  ExpectCubesIdentical(ScratchCube(*schema, engine, LagOptions(), 0, 2),
                       **rolled);
  stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.rebuilds, 2);
  EXPECT_EQ(stats.rolls, 1);
}

// Popular-path cubing keeps no tree: its memo rebuilds on every roll.
TEST(IncrementalCubeTest, PopularPathRollsRebuild) {
  const WorkloadSpec spec = RollSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamCubeEngine::Options options = LagOptions();
  options.algorithm = StreamCubeEngine::Algorithm::kPopularPath;
  ShardedStreamEngine engine(*schema, options, 2);
  StreamGenerator gen(spec);
  SeedRollEngine(engine, gen);
  ASSERT_TRUE(engine.ComputeCubeShared(0, 2).ok());

  Pcg32 rng(9);
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    RollRound(engine, gen.cells(), kRollSeedTicks / 4 + round, rng);
    auto cube = engine.ComputeCubeShared(0, 2);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubesIdentical(ScratchCube(*schema, engine, options, 0, 2), **cube);
  }
  const auto stats = engine.cube_memo_stats();
  EXPECT_EQ(stats.rolls, 0);
  EXPECT_EQ(stats.rebuilds, 1 + kRounds);
}

// A roll copies the cube before rewriting it when a handle still holds it.
TEST(IncrementalCubeTest, RolledCubeIsImmutableForHolders) {
  const WorkloadSpec spec = RollSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 2);
  StreamGenerator gen(spec);
  SeedRollEngine(engine, gen);

  auto before = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(before.ok());
  const RegressionCube before_copy = (*before)->Clone();

  Pcg32 rng(13);
  RollRound(engine, gen.cells(), kRollSeedTicks / 4, rng);
  auto after = engine.ComputeCubeShared(0, 2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine.cube_memo_stats().rolls, 1);
  EXPECT_NE(before->get(), after->get());
  ExpectCubesIdentical(before_copy, **before);
  ExpectCubesIdentical(ScratchCube(*schema, engine, LagOptions(), 0, 2),
                       **after);
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

// The memo's retained run pins its entry vector and frame blocks past any
// engine-side eviction, so they are accounted under their own category:
// sized when a run is installed, moved on a tracker swap, released on
// Invalidate and when the memo is destroyed.
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

    // At the memo's revision a gather returns the memo's run itself.
    auto run_frame_bytes = [&engine] {
      const auto run = engine.GatherAlignedCells().cells;
      std::int64_t bytes = static_cast<std::int64_t>(
          run->size() * sizeof(CellSnapshot));
      for (const CellSnapshot& cell : *run) {
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

// The memo's run serves a gather only at exactly the memo's revision, and
// the probe never waits on maintenance: while maintenance holds the memo
// (here the test holds its mutex), RunAt declines even at the memo's own
// revision, so a TakeSnapshot folds instead of queueing behind a patch.
TEST(IncrementalCubeTest, RunProbeServesOneRevisionAndNeverWaits) {
  WorkloadSpec spec = LagSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, LagOptions(), 2);
  StreamGenerator gen(spec);
  SeedLagging(engine, gen);

  IncrementalCubeCache memo(*schema, LagOptions());
  const auto base = engine.GatherAlignedCells();
  ASSERT_TRUE(memo.CubeFor(base.cells, base.clock, base.revision, 0, 2,
                           nullptr)
                  .ok());
  const auto served = memo.RunAt(base.revision);
  EXPECT_EQ(served.cells, base.cells);
  EXPECT_EQ(served.clock, base.clock);
  EXPECT_EQ(memo.RunAt(base.revision + 1).cells, nullptr);
  EXPECT_EQ(memo.RunAt(base.revision - 1).cells, nullptr);

  std::unique_lock<std::mutex> maintenance(
      IncrementalCubeCacheTestPeer::Mutex(memo));
  auto probe = std::async(std::launch::async,
                          [&] { return memo.RunAt(base.revision).cells; });
  const bool returned =
      probe.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  maintenance.unlock();
  EXPECT_TRUE(returned) << "the run probe waited on memo maintenance";
  EXPECT_EQ(probe.get(), nullptr);
  EXPECT_EQ(memo.RunAt(base.revision).cells, base.cells);

  // Late data into the sealed window: the next CubeFor patches, and the
  // run moves to the patched revision.
  ASSERT_TRUE(engine.Ingest({gen.cells()[0].key, 7, 9.0}).ok());
  const auto next = engine.GatherAlignedCells();
  ASSERT_TRUE(memo.CubeFor(next.cells, next.clock, next.revision, 0, 2,
                           nullptr)
                  .ok());
  EXPECT_EQ(memo.stats().patches, 1);
  EXPECT_EQ(memo.RunAt(next.revision).cells, next.cells);
  EXPECT_EQ(memo.RunAt(base.revision).cells, nullptr);
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
