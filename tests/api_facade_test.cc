// Facade contract tests: EngineBuilder validation, and every QuerySpec
// kind round-tripping against the reference store's read for stream kinds
// (tests/reference_store.h) and CubeView reads for cube kinds.

#include "regcube/api/regcube.h"

#include <memory>

#include "equivalence_harness.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectIsbNear;

std::shared_ptr<const TiltPolicy> SmallPolicy() {
  // quarter = 4 ticks, hour = 16 ticks.
  return MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
}

WorkloadSpec FacadeSpec(std::int64_t tuples = 50, std::int64_t ticks = 32) {
  WorkloadSpec spec;
  spec.num_dims = 2;
  spec.num_levels = 2;
  spec.fanout = 3;
  spec.num_tuples = tuples;
  spec.series_length = ticks;
  spec.seed = 11;
  return spec;
}

/// Facade engine and reference store fed the same sealed stream.
struct Paired {
  Engine facade;
  testing_util::ReferenceStore reference;
};

Paired MakePaired(const WorkloadSpec& spec, double threshold = 0.02) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  EXPECT_TRUE(schema.ok());
  auto policy = SmallPolicy();

  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(policy)
                   .SetExceptionPolicy(ExceptionPolicy(threshold))
                   .Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();

  StreamCubeEngine::Options options;
  options.tilt_policy = policy;
  options.policy = ExceptionPolicy(threshold);
  Paired pair{std::move(built).value(),
              testing_util::ReferenceStore(*schema, options)};

  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  EXPECT_TRUE(pair.facade.IngestBatch(stream).ok());
  EXPECT_TRUE(pair.reference.IngestBatch(stream).ok());
  EXPECT_TRUE(pair.facade.SealThrough(spec.series_length - 1).ok());
  EXPECT_TRUE(pair.reference.SealThrough(spec.series_length - 1).ok());
  return pair;
}

// ---------------------------------------------------------------- builder

TEST(EngineBuilderTest, RequiresSchema) {
  auto result = EngineBuilder().SetTiltPolicy(SmallPolicy()).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RequiresTiltPolicy) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto result = EngineBuilder().SetSchema(*schema).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsBadShardCount) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  for (int shards : {0, -3, 100'000}) {
    auto result = EngineBuilder()
                      .SetSchema(*schema)
                      .SetTiltPolicy(SmallPolicy())
                      .SetShardCount(shards)
                      .Build();
    ASSERT_FALSE(result.ok()) << "shards=" << shards;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineBuilderTest, DrillPathRequiresPopularPath) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  CuboidLattice lattice(**schema);
  DrillPath path = DrillPath::MakeDefault(lattice);

  auto mo = EngineBuilder()
                .SetSchema(*schema)
                .SetTiltPolicy(SmallPolicy())
                .SetDrillPath(path)
                .Build();
  ASSERT_FALSE(mo.ok());
  EXPECT_EQ(mo.status().code(), StatusCode::kInvalidArgument);

  auto pp = EngineBuilder()
                .SetSchema(*schema)
                .SetTiltPolicy(SmallPolicy())
                .SetAlgorithm(Engine::Algorithm::kPopularPath)
                .SetDrillPath(path)
                .Build();
  EXPECT_TRUE(pp.ok()) << pp.status().ToString();
}

TEST(EngineBuilderTest, RejectsInvalidDrillPath) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  CuboidLattice lattice(**schema);
  DrillPath broken = DrillPath::MakeDefault(lattice);
  broken.steps.pop_back();  // no longer ends at the m-layer
  auto result = EngineBuilder()
                    .SetSchema(*schema)
                    .SetTiltPolicy(SmallPolicy())
                    .SetAlgorithm(Engine::Algorithm::kPopularPath)
                    .SetDrillPath(broken)
                    .Build();
  ASSERT_FALSE(result.ok());
}

TEST(EngineBuilderTest, BuildIsRepeatable) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  EngineBuilder builder;
  builder.SetSchema(*schema).SetTiltPolicy(SmallPolicy()).SetShardCount(2);
  auto first = builder.Build();
  auto second = builder.Build();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->num_shards(), 2);
  EXPECT_EQ(second->num_shards(), 2);
}

TEST(EngineBuilderTest, RejectsBadBudgetConfig) {
  WorkloadSpec spec = FacadeSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto base = [&] {
    EngineBuilder builder;
    builder.SetSchema(*schema).SetTiltPolicy(SmallPolicy());
    return builder;
  };
  EXPECT_EQ(base().SetMemoryBudget(-1).Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(base().SetCompactThreshold(0.0).Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(base().SetCompactThreshold(-0.5).Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(base().SetCompactMinBytes(-1).Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(base().SetMemoryBudget(0).SetCompactMinBytes(0).Build().ok());
}

// ---------------------------------------------------------- stream kinds

TEST(ApiFacadeTest, CellMatchesReferenceQueryCell) {
  Paired pair = MakePaired(FacadeSpec());
  const CuboidLattice& lattice = pair.reference.lattice();
  StreamGenerator gen(FacadeSpec());
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());

  auto want = pair.reference.QueryCell(lattice.o_layer_id(), o_key, 0, 8);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto facade =
      pair.facade.Query(QuerySpec::Cell(lattice.o_layer_id(), o_key, 0, 8));
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  EXPECT_EQ(facade->kind(), QueryKind::kCell);
  ExpectIsbNear(*want, facade->cell(), 1e-9);

  // Unknown cell surfaces NotFound through the facade too.
  CellKey bogus(2);
  bogus.set(0, 9);
  bogus.set(1, 9);
  EXPECT_EQ(pair.facade.Query(QuerySpec::Cell(lattice.o_layer_id(), bogus, 0, 8))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ApiFacadeTest, CellRejectsOutOfRangeCuboidWithTypedError) {
  // The error contract, not an RC_CHECK abort: a cuboid id outside the
  // lattice surfaces InvalidArgument through every point-query door —
  // Engine::Query and a held snapshot.
  Paired pair = MakePaired(FacadeSpec());
  const CuboidId past_end = pair.reference.lattice().num_cuboids();
  const CellKey key(2);

  for (CuboidId bad : {past_end, CuboidId{-1}}) {
    EXPECT_EQ(pair.facade.Query(QuerySpec::Cell(bad, key, 0, 8))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "cuboid " << bad;
    EXPECT_EQ(pair.facade.Query(QuerySpec::CellSeries(bad, key, 0))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "cuboid " << bad;
  }

  // A held snapshot keeps the same contract.
  auto snap = pair.facade.TakeSnapshot();
  EXPECT_EQ(snap->Query(QuerySpec::Cell(past_end, key, 0, 8)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ApiFacadeTest, CellSeriesMatchesReference) {
  Paired pair = MakePaired(FacadeSpec());
  const CuboidLattice& lattice = pair.reference.lattice();
  StreamGenerator gen(FacadeSpec());
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());

  auto want = pair.reference.QueryCellSeries(lattice.o_layer_id(), o_key, 1);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto facade = pair.facade.Query(
      QuerySpec::CellSeries(lattice.o_layer_id(), o_key, 1));
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  ASSERT_EQ(facade->series().size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    ExpectIsbNear((*want)[i], facade->series()[i], 1e-9);
  }
}

TEST(ApiFacadeTest, ObservationDeckMatchesReference) {
  Paired pair = MakePaired(FacadeSpec());
  auto want = pair.reference.ObservationDeck(1);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto facade = pair.facade.Query(QuerySpec::ObservationDeck(1));
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  ASSERT_EQ(facade->deck().size(), want->size());
  for (const auto& [key, series] : *want) {
    auto it = facade->deck().find(key);
    ASSERT_NE(it, facade->deck().end()) << key.ToString();
    ASSERT_EQ(it->second.size(), series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      ExpectIsbNear(series[i], it->second[i], 1e-9);
    }
  }
}

TEST(ApiFacadeTest, TrendChangesMatchReference) {
  Paired pair = MakePaired(FacadeSpec());
  auto want = pair.reference.DetectTrendChanges(0, 0.05);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto facade = pair.facade.Query(QuerySpec::TrendChanges(0, 0.05));
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  ASSERT_EQ(facade->trend_changes().size(), want->size());
  // Same set of keys with the same deltas (order may tie-break differently).
  for (const auto& expected : *want) {
    bool found = false;
    for (const auto& actual : facade->trend_changes()) {
      if (actual.key == expected.key) {
        EXPECT_NEAR(actual.slope_delta, expected.slope_delta, 1e-9);
        found = true;
      }
    }
    EXPECT_TRUE(found) << expected.key.ToString();
  }
}

// ------------------------------------------------------------ cube kinds

TEST(ApiFacadeTest, CubeKindsMatchCubeView) {
  Paired pair = MakePaired(FacadeSpec());
  auto cube = pair.reference.ComputeCube(0, 8);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ExceptionPolicy policy(0.02);
  CubeView view(*cube, policy);
  const CuboidLattice& lattice = pair.reference.lattice();

  // kTopExceptions.
  auto top = pair.facade.Query(QuerySpec::TopExceptions(5, 0, 8));
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  auto expected_top = view.TopExceptions(5);
  ASSERT_EQ(top->cells().size(), expected_top.size());
  for (size_t i = 0; i < expected_top.size(); ++i) {
    EXPECT_EQ(top->cells()[i].cuboid, expected_top[i].cuboid);
    ExpectIsbNear(expected_top[i].isb, top->cells()[i].isb, 1e-9);
  }

  // kCubeCell for a retained cell.
  ASSERT_FALSE(cube->o_layer().empty());
  const auto& [o_key, o_isb] = *cube->o_layer().begin();
  auto got = pair.facade.Query(
      QuerySpec::CubeCell(lattice.o_layer_id(), o_key, 0, 8));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIsbNear(o_isb, got->cell(), 1e-9);

  // kExceptionsAt / kDrillDown / kSupporters agree per exception root.
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    auto exceptions = pair.facade.Query(QuerySpec::ExceptionsAt(c, 0, 8));
    ASSERT_TRUE(exceptions.ok()) << exceptions.status().ToString();
    EXPECT_EQ(exceptions->cells().size(), view.ExceptionsAt(c).size());
  }
  if (!expected_top.empty()) {
    const CellResult& root = expected_top.front();
    auto drill =
        pair.facade.Query(QuerySpec::DrillDown(root.cuboid, root.key, 0, 8));
    ASSERT_TRUE(drill.ok());
    EXPECT_EQ(drill->cells().size(),
              view.DrillDown(root.cuboid, root.key).size());
    auto supporters =
        pair.facade.Query(QuerySpec::Supporters(root.cuboid, root.key, 0, 8));
    ASSERT_TRUE(supporters.ok());
    EXPECT_EQ(supporters->cells().size(),
              view.ExceptionSupporters(root.cuboid, root.key).size());
  }
}

TEST(ApiFacadeTest, CubeCellOnTheFlyComputesPrunedCells) {
  // Threshold high enough that intermediate cells are pruned; on-the-fly
  // aggregation must still answer them, matching CubeView.
  Paired pair = MakePaired(FacadeSpec(), /*threshold=*/1e9);
  auto cube = pair.reference.ComputeCube(0, 8);
  ASSERT_TRUE(cube.ok());
  ExceptionPolicy policy(1e9);
  CubeView view(*cube, policy);
  const CuboidLattice& lattice = pair.reference.lattice();

  // Find an intermediate cuboid (not m, not o).
  CuboidId mid = -1;
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    if (c != lattice.m_layer_id() && c != lattice.o_layer_id()) {
      mid = c;
      break;
    }
  }
  ASSERT_NE(mid, -1);
  const CellKey mid_key =
      lattice.ProjectMLayerKey(cube->m_layer().begin()->first, mid);

  // Retained lookup fails (pruned), on-the-fly succeeds.
  EXPECT_EQ(
      pair.facade.Query(QuerySpec::CubeCell(mid, mid_key, 0, 8)).status().code(),
      StatusCode::kNotFound);
  auto fly = pair.facade.Query(
      QuerySpec::CubeCell(mid, mid_key, 0, 8, /*on_the_fly=*/true));
  ASSERT_TRUE(fly.ok()) << fly.status().ToString();
  auto expected = view.ComputeCellOnTheFly(mid, mid_key);
  ASSERT_TRUE(expected.ok());
  // The memo and the reference cube are bit-identical, and on-the-fly
  // cells sum in canonical order, so the answers are too.
  EXPECT_EQ(*expected, fly->cell());
}

TEST(ApiFacadeTest, FreeQueryServesCubeKindsAndRejectsStreamKinds) {
  Paired pair = MakePaired(FacadeSpec());
  auto cube = pair.reference.ComputeCube(0, 8);
  ASSERT_TRUE(cube.ok());
  ExceptionPolicy policy(0.02);

  auto top = Query(*cube, policy, QuerySpec::TopExceptions(3, 0, 8));
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->cells().size(), CubeView(*cube, policy).TopExceptions(3).size());

  EXPECT_EQ(Query(*cube, policy, QuerySpec::ObservationDeck(0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Query(*cube, policy,
                  QuerySpec::CubeCell(/*cuboid=*/-5, CellKey(2), 0, 8))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ApiFacadeTest, CubeCacheInvalidatedByWrites) {
  WorkloadSpec spec = FacadeSpec();
  Paired pair = MakePaired(spec);
  auto before = pair.facade.Query(QuerySpec::TopExceptions(3, 0, 4));
  ASSERT_TRUE(before.ok());

  // More stream data changes the window; the cached cube must not be
  // served stale.
  CellKey key(2);
  key.set(0, 0);
  key.set(1, 0);
  for (TimeTick t = spec.series_length; t < spec.series_length + 16; ++t) {
    ASSERT_TRUE(pair.facade.Ingest({key, t, 1000.0 * static_cast<double>(t)}).ok());
    ASSERT_TRUE(pair.reference.Ingest({key, t, 1000.0 * static_cast<double>(t)}).ok());
  }
  ASSERT_TRUE(pair.facade.SealThrough(spec.series_length + 15).ok());
  ASSERT_TRUE(pair.reference.SealThrough(spec.series_length + 15).ok());

  auto after = pair.facade.Query(QuerySpec::TopExceptions(3, 0, 4));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto reference_cube = pair.reference.ComputeCube(0, 4);
  ASSERT_TRUE(reference_cube.ok());
  ExceptionPolicy policy(0.02);
  auto expected = CubeView(*reference_cube, policy).TopExceptions(3);
  ASSERT_EQ(after->cells().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectIsbNear(expected[i].isb, after->cells()[i].isb, 1e-9);
  }
}

TEST(ApiFacadeTest, KeyMapperAppliedBeforeSharding) {
  // Primitive keys at level-2 granularity mapped to m-layer level 1; both
  // primitive keys map to one m-layer cell, so the engine sees one cell
  // regardless of shard count.
  auto h = std::make_shared<FanoutHierarchy>(2, 3);
  auto schema_result = CubeSchema::Create({Dimension("A", h)}, {1}, {1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  auto built = EngineBuilder()
                   .SetSchema(schema)
                   .SetTiltPolicy(SmallPolicy())
                   .SetKeyMapper([&h](const CellKey& primitive) {
                     CellKey m(1);
                     m.set(0, h->Parent(2, primitive[0]));
                     return m;
                   })
                   .SetShardCount(8)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();

  CellKey u0(1), u1(1);
  u0.set(0, 0);  // both map to group 0
  u1.set(0, 1);
  for (TimeTick t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine.Ingest({u0, t, 1.0}).ok());
    ASSERT_TRUE(engine.Ingest({u1, t, 2.0}).ok());
  }
  ASSERT_TRUE(engine.SealThrough(7).ok());
  EXPECT_EQ(engine.num_cells(), 1);
}

// ------------------------------------------- popular-path cube route

void ExpectCellResultsIdentical(const std::vector<CellResult>& expected,
                                const std::vector<CellResult>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].cuboid, actual[i].cuboid) << "row " << i;
    EXPECT_EQ(expected[i].key, actual[i].key) << "row " << i;
    EXPECT_EQ(expected[i].isb, actual[i].isb) << "row " << i;
    EXPECT_EQ(expected[i].is_exception, actual[i].is_exception) << "row " << i;
  }
}

// Popular-path engines serve cube kinds from the maintained memo like m/o
// engines do. Under churn every answer must equal, bitwise, the same query
// over the from-scratch snapshot cube, and the memo must hit, revalidate
// and rebuild but never patch or roll.
TEST(ApiFacadeTest, PopularPathCubeKindsMatchSnapshotCubeUnderChurn) {
  // Ticks 0..7 for every generated cell, then a pacer cell drives the clock
  // to 11: late writes at tick 7 land in the globally sealed slot [4,8) (the
  // churn an m/o memo would patch), pacer writes stay in the open unit.
  const WorkloadSpec spec = equivalence::ChurnWorkload(150, 8, 47);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  const ExceptionPolicy policy(0.02);
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(equivalence::SmallTiltPolicy())
                   .SetExceptionPolicy(policy)
                   .SetAlgorithm(Engine::Algorithm::kPopularPath)
                   .SetShardCount(2)
                   .SetReadThreads(2)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine& engine = *built;
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  const CellKey pacer = equivalence::Key2(15, 15);
  ASSERT_TRUE(engine.Ingest({pacer, 11, 1.0}).ok());

  equivalence::ChurnPlan plan;
  plan.rounds = 8;
  plan.fresh_round = 4;
  plan.fresh_key = equivalence::FreshKeyOutside(gen, 16);

  constexpr int kLevel = 0;
  constexpr int kSlots = 2;
  auto expect_answers_match_snapshot = [&] {
    auto cube = engine.TakeSnapshot()->ComputeCube(kLevel, kSlots);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    std::vector<QuerySpec> specs = {QuerySpec::TopExceptions(8, kLevel, kSlots)};
    for (CuboidId c = 0; c < engine.lattice().num_cuboids(); ++c) {
      specs.push_back(QuerySpec::ExceptionsAt(c, kLevel, kSlots));
    }
    auto top = engine.Query(specs.front());
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    ASSERT_FALSE(top->cells().empty()) << "no exceptions to drill into";
    for (const CellResult& cell : top->cells()) {
      specs.push_back(QuerySpec::DrillDown(cell.cuboid, cell.key, kLevel,
                                           kSlots));
    }
    for (const QuerySpec& q : specs) {
      SCOPED_TRACE(QueryKindName(q.kind));
      auto expected = Query(*cube, policy, q);
      auto actual = engine.Query(q);
      ASSERT_EQ(expected.ok(), actual.ok());
      if (!expected.ok()) {
        EXPECT_EQ(expected.status().code(), actual.status().code());
        continue;
      }
      ExpectCellResultsIdentical(expected->cells(), actual->cells());
    }
  };
  equivalence::RunChurnRounds(engine, gen.cells(), plan, [&](int) {
    expect_answers_match_snapshot();
    // Moves the revision but no sealed window: the memo revalidates.
    ASSERT_TRUE(engine.Ingest({pacer, 11, 0.5}).ok());
    expect_answers_match_snapshot();
  });

  const auto stats = engine.cube_memo_stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.revalidations, 0);
  EXPECT_GT(stats.rebuilds, 1);
  EXPECT_EQ(stats.patches, 0);
  EXPECT_EQ(stats.rolls, 0);
}

}  // namespace
}  // namespace regcube
