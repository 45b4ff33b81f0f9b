// Member-index contracts: the ingest-maintained per-cuboid roll-up index
// behind sublinear point queries must be bit-identical to the reference
// store's O(cells) project-every-key scan across shard counts {1, 2, 8}
// under randomized churn; it must stay coherent across seals, window-epoch
// rolls and brand-new cells (activation backfills the population, ingest
// maintains it from then on); the cube memo's per-cuboid node index must
// re-fold every cell of every cuboid bit for bit as H-cubing does, on a
// packed and on a wide schema; the member index's bytes must be accounted
// under "index.members"; the out-of-range-cuboid error contract must be
// typed (no RC_CHECK aborts); and concurrent ingest + point queries must
// be race-free (this test runs in the TSan CI job).
//
// The randomized churn and the oracle comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <atomic>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/htree/htree_cubing.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectCellMapsIdentical;
using equivalence::ExpectMemberGathersIdentical;
using equivalence::Key2;
using equivalence::SmallTiltPolicy;
using equivalence::UnusedMLayerKey;
using testing_util::ReferenceStore;

WorkloadSpec IndexSpec(std::int64_t tuples = 120, std::int64_t ticks = 16) {
  return ChurnWorkload(tuples, ticks, /*seed=*/59);
}

/// Probes every cuboid of the lattice with a handful of keys — present
/// members, a key matching zero members, and both critical layers — and
/// checks the indexed gather against the reference store's scan bit for
/// bit, plus the engine's point queries against the store's.
void ExpectIndexMatchesScanEverywhere(ShardedStreamEngine& engine,
                                      const ReferenceStore& reference,
                                      StreamGenerator& gen, int num_levels) {
  const CuboidLattice& lattice = engine.lattice();
  const CellKey missing = UnusedMLayerKey(gen);
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    for (const CellKey& m_key :
         {gen.cells()[0].key, gen.cells()[gen.cells().size() / 2].key,
          missing}) {
      const CellKey key = lattice.ProjectMLayerKey(m_key, c);
      ExpectMemberGathersIdentical(engine.GatherCellsMatching(c, key),
                                   reference.GatherMatching(c, key),
                                   num_levels);

      // The public point queries must agree with the store's (same
      // canonical operand order, so bitwise — not merely close).
      auto member_cell = engine.QueryCell(c, key, 0, 2);
      auto scan_cell = reference.QueryCell(c, key, 0, 2);
      ASSERT_EQ(member_cell.ok(), scan_cell.ok()) << key.ToString();
      if (member_cell.ok()) {
        EXPECT_EQ(*member_cell, *scan_cell) << key.ToString();
      } else {
        EXPECT_EQ(member_cell.status().code(), scan_cell.status().code());
      }
      auto member_series = engine.QueryCellSeries(c, key, 1);
      auto scan_series = reference.QueryCellSeries(c, key, 1);
      ASSERT_EQ(member_series.ok(), scan_series.ok());
      if (member_series.ok()) {
        EXPECT_EQ(*member_series, *scan_series);
      }
    }
  }
}

// ------------------------------------------------------------ equivalence

TEST(MemberIndexTest, IndexedGatherMatchesScanUnderRandomizedChurn) {
  WorkloadSpec spec = IndexSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  const int num_levels = ChurnEngineOptions().tilt_policy->num_levels();

  // Advancing-tick churn with periodic seals and a brand-new mid-churn
  // cell: the index is probed every round, across unit-boundary crossings
  // (realignment), epoch rolls (seals) and population growth.
  equivalence::ChurnPlan plan;
  plan.rounds = 8;
  plan.seed = 59;
  plan.base_tick = spec.series_length;
  plan.advance_ticks = true;
  plan.seal_every = 3;
  plan.fresh_round = 2;
  plan.fresh_key = Key2(15, 15);

  // The reference store after the seed and after each churn round (the
  // plan's writes are a pure function of its seed).
  ReferenceStore reference(*schema, ChurnEngineOptions());
  ASSERT_TRUE(reference.IngestBatch(stream).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  const ReferenceStore seeded = reference;
  std::vector<ReferenceStore> after_round;
  equivalence::RunChurnRounds(reference, gen.cells(), plan, [&](int) {
    after_round.push_back(reference);
  });

  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards, pool);
    ASSERT_TRUE(engine.IngestBatch(stream).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

    // Pre-churn probe activates every cuboid's map, so the churn rounds
    // exercise the maintained (not freshly built) index.
    ExpectIndexMatchesScanEverywhere(engine, seeded, gen, num_levels);
    equivalence::RunChurnRounds(engine, gen.cells(), plan, [&](int round) {
      ExpectIndexMatchesScanEverywhere(
          engine, after_round[static_cast<size_t>(round)], gen, num_levels);
    });
  }
}

TEST(MemberIndexTest, IndexStaysCoherentAcrossSealsAndEpochRolls) {
  WorkloadSpec spec = IndexSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  ReferenceStore reference(*schema, ChurnEngineOptions());
  // Every write and seal goes to both.
  auto ingest = [&](const StreamTuple& tuple) {
    ASSERT_TRUE(engine.Ingest(tuple).ok());
    ASSERT_TRUE(reference.Ingest(tuple).ok());
  };
  auto seal = [&](TimeTick t) {
    ASSERT_TRUE(engine.SealThrough(t).ok());
    ASSERT_TRUE(reference.SealThrough(t).ok());
  };
  for (const StreamTuple& tuple : gen.GenerateStream()) ingest(tuple);
  seal(spec.series_length - 1);

  const CuboidLattice& lattice = engine.lattice();
  const CuboidId o_id = lattice.o_layer_id();
  const CellKey o_key = lattice.ProjectMLayerKey(gen.cells()[0].key, o_id);

  // First query activates the index.
  auto before = engine.QueryCell(o_id, o_key, 0, 2);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Late data into the open unit must be visible through the index path
  // immediately (member states are live; frozen blocks refresh per cell).
  ingest({gen.cells()[0].key, spec.series_length, 9.0});
  auto after_write = engine.QueryCell(o_id, o_key, 0, 2);
  ASSERT_TRUE(after_write.ok());

  // An epoch roll (seal across the quarter boundary) moves every member's
  // window; the indexed answer must track the reference scan bit for bit.
  seal(spec.series_length + 4);
  ExpectMemberGathersIdentical(engine.GatherCellsMatching(o_id, o_key),
                               reference.GatherMatching(o_id, o_key), 2);
  auto after_roll = engine.QueryCell(o_id, o_key, 0, 2);
  ASSERT_TRUE(after_roll.ok());
  EXPECT_FALSE(*after_roll == *before)
      << "the epoch roll (window interval moved) must be visible through "
         "the index";

  // A brand-new cell after activation is folded in at ingest: its o-layer
  // parent gains a member without any rebuild.
  const CellKey fresh = equivalence::FreshKeyOutside(gen, 16);
  const CellKey fresh_o = lattice.ProjectMLayerKey(fresh, o_id);
  const size_t members_before =
      engine.GatherCellsMatching(o_id, fresh_o).cells.size();
  EXPECT_EQ(members_before,
            reference.GatherMatching(o_id, fresh_o).cells.size());
  ingest({fresh, spec.series_length + 5, 1.0});
  auto grown = engine.GatherCellsMatching(o_id, fresh_o);
  EXPECT_EQ(grown.cells.size(), members_before + 1);
  ExpectMemberGathersIdentical(grown, reference.GatherMatching(o_id, fresh_o),
                               2);
}

// ------------------------------------------- the memo's node index

/// A window of `tuples` distinct m-layer cells over `schema` (every
/// dimension a 2-level hierarchy of fan-out `fanout` >= 4), drawn from the
/// first 4 children of the first 4 level-1 values whatever the fan-out, so
/// the coarser cells have several members each.
std::vector<MLayerTuple> ClusteredWindow(const CubeSchema& schema,
                                         ValueId fanout, std::int64_t tuples,
                                         std::uint64_t seed) {
  Pcg32 rng(seed, 3);
  std::unordered_set<CellKey, CellKeyHash> seen;
  std::vector<MLayerTuple> window;
  while (static_cast<std::int64_t>(window.size()) < tuples) {
    CellKey key(schema.num_dims());
    for (int d = 0; d < schema.num_dims(); ++d) {
      const ValueId parent = rng.Uniform(4);
      key.set(d, parent * fanout + rng.Uniform(4));
    }
    if (!seen.insert(key).second) continue;
    const double base = static_cast<double>(rng.Uniform(1000)) / 7.0;
    const double slope = static_cast<double>(rng.Uniform(100)) / 13.0 - 3.0;
    window.push_back(MLayerTuple{key, Isb{TimeInterval{0, 15}, base, slope}});
  }
  return window;
}

/// Every cuboid's fold index, refolded through FoldAll, reproduces
/// ComputeCuboidCells over a tree freshly built from `window` bitwise, and
/// Find/KeyOf round-trip every ordinal.
void ExpectIndexesRefold(const HTree& tree, const CubeSchema& schema,
                         const std::vector<MLayerTuple>& window,
                         const HTree::Options& options,
                         const std::vector<CuboidFoldIndex>& indexes) {
  const CuboidLattice lattice(schema);
  auto fresh = HTree::Build(schema, window, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    SCOPED_TRACE(lattice.CuboidName(c));
    const CuboidFoldIndex& index = indexes[static_cast<size_t>(c)];
    const CellMap want = ComputeCuboidCells(*fresh, lattice, c);
    ASSERT_EQ(index.num_cells(), static_cast<std::int64_t>(want.size()));
    std::vector<Isb> folded;
    index.FoldAll(tree, &folded);
    CellMap got;
    for (std::int64_t cell = 0; cell < index.num_cells(); ++cell) {
      const CellKey key = index.KeyOf(tree, cell);
      EXPECT_EQ(index.Find(tree, key), cell) << key.ToString();
      got.emplace(key, folded[static_cast<size_t>(cell)]);
    }
    ExpectCellMapsIdentical(want, got);
  }
}

/// For every cuboid, the memo's fold index refolds every cell exactly as
/// the H-cubing kernel folds it: on a fresh tree (with and without stored
/// subtree measures), and — built once, on the fresh stored-measure tree —
/// after a patch (UpdateLeafMeasure + RefreshAncestorMeasures) and after
/// an epoch roll (Rebase) of that tree.
void ExpectFoldIndexRefoldsEveryCell(const CubeSchema& schema,
                                     std::vector<MLayerTuple> window,
                                     bool use_packed_keys) {
  const CuboidLattice lattice(schema);
  for (bool stored : {true, false}) {
    SCOPED_TRACE(stored ? "stored subtree measures" : "lazy subtree walk");
    HTree::Options options;
    options.attribute_order = CardinalityAscendingOrder(schema);
    options.store_nonleaf_measures = stored;
    options.use_packed_keys = use_packed_keys;
    auto tree = HTree::Build(schema, window, options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_EQ(tree->codec() != nullptr, use_packed_keys);
    std::vector<CuboidFoldIndex> indexes;
    for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
      indexes.push_back(CuboidFoldIndex::Build(*tree, lattice, c));
    }
    // A key the tree never saw has no cell.
    std::unordered_set<CellKey, CellKeyHash> present;
    for (const MLayerTuple& t : window) present.insert(t.key);
    CellKey absent = window[0].key;
    for (ValueId v = 0; present.count(absent) > 0; ++v) absent.set(0, v);
    EXPECT_EQ(indexes[static_cast<size_t>(lattice.m_layer_id())].Find(
                  *tree, absent),
              -1);
    {
      SCOPED_TRACE("fresh tree");
      ExpectIndexesRefold(*tree, schema, window, options, indexes);
    }
    if (!stored) continue;
    {
      SCOPED_TRACE("after a patch");
      std::vector<const HTreeNode*> leaves;
      for (size_t i = 0; i < window.size(); i += 3) {
        window[i].measure.base += 1.0 / 3.0;
        window[i].measure.slope -= 0.125;
        auto leaf = tree->UpdateLeafMeasure(schema, window[i].key,
                                            window[i].measure);
        ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
        leaves.push_back(*leaf);
      }
      tree->RefreshAncestorMeasures(leaves);
      ExpectIndexesRefold(*tree, schema, window, options, indexes);
    }
    {
      SCOPED_TRACE("after a roll");
      for (size_t i = 0; i < window.size(); ++i) {
        window[i].measure = Isb{TimeInterval{16, 31},
                                window[i].measure.slope * 0.5 + 1.0,
                                static_cast<double>(i % 7) / 11.0};
      }
      tree->Rebase(window);
      ExpectIndexesRefold(*tree, schema, window, options, indexes);
    }
  }
}

TEST(MemberIndexTest, FoldIndexRefoldsEveryCellOfEveryCuboidBitwise) {
  // The o-layer is "*" in every dimension, so the lattice holds the apex.
  {
    SCOPED_TRACE("packed schema");
    auto h = std::make_shared<FanoutHierarchy>(2, 4);
    auto schema = CubeSchema::Create(
        {Dimension("A", h), Dimension("B", h), Dimension("C", h)},
        {2, 2, 2}, {0, 0, 0});
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    const auto window =
        ClusteredWindow(*schema, 4, /*tuples=*/200, /*seed=*/61);
    for (bool use_packed_keys : {true, false}) {
      SCOPED_TRACE(use_packed_keys ? "packed keys" : "CellKeys");
      ExpectFoldIndexRefoldsEveryCell(*schema, window, use_packed_keys);
    }
  }
  {
    // o == m: the lattice is the m-layer alone.
    SCOPED_TRACE("degenerate lattice");
    auto h = std::make_shared<FanoutHierarchy>(2, 4);
    auto schema = CubeSchema::Create(
        {Dimension("A", h), Dimension("B", h), Dimension("C", h)},
        {2, 2, 2}, {2, 2, 2});
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    ASSERT_EQ(CuboidLattice(*schema).num_cuboids(), 1);
    const auto window =
        ClusteredWindow(*schema, 4, /*tuples=*/120, /*seed=*/71);
    for (bool use_packed_keys : {true, false}) {
      SCOPED_TRACE(use_packed_keys ? "packed keys" : "CellKeys");
      ExpectFoldIndexRefoldsEveryCell(*schema, window, use_packed_keys);
    }
  }
  {
    // 65536^2 values per dimension need 33 bits each: no codec, so every
    // key takes the CellKey path.
    SCOPED_TRACE("wide schema");
    auto h = std::make_shared<FanoutHierarchy>(2, 65536);
    auto schema = CubeSchema::Create({Dimension("A", h), Dimension("B", h)},
                                     {2, 2}, {0, 0});
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    ExpectFoldIndexRefoldsEveryCell(
        *schema, ClusteredWindow(*schema, 65536, /*tuples=*/120, /*seed=*/67),
        /*use_packed_keys=*/false);
  }
}

// ------------------------------------------------------ memory accounting

TEST(MemberIndexTest, IndexBytesAreTrackedUnderIndexMembers) {
  WorkloadSpec spec = IndexSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  MemoryTracker tracker;
  engine.set_memory_tracker(&tracker);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  // Before any point query no roll-up map exists; only the creation-order
  // cell-id list (which grows with ingest) is retained, and it is
  // accounted too — "index.members" must cover everything the machinery
  // holds, not just the maps.
  const std::int64_t id_list_only = engine.MemberIndexBytes();
  EXPECT_GT(id_list_only, 0);
  EXPECT_EQ(tracker.category_bytes("index.members"), id_list_only);

  const CuboidLattice& lattice = engine.lattice();
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());
  ASSERT_TRUE(engine.QueryCell(lattice.o_layer_id(), o_key, 0, 2).ok());
  const std::int64_t after_activation =
      tracker.category_bytes("index.members");
  EXPECT_GT(after_activation, id_list_only)
      << "activation must account the new roll-up map";
  EXPECT_EQ(after_activation, engine.MemberIndexBytes());

  // Ingest of a brand-new cell after activation grows the maintained
  // maps; the accounting follows without any re-registration churn.
  ASSERT_TRUE(engine
                  .Ingest({equivalence::FreshKeyOutside(gen, 16),
                           spec.series_length, 1.0})
                  .ok());
  EXPECT_GT(tracker.category_bytes("index.members"), after_activation);
  EXPECT_EQ(tracker.category_bytes("index.members"),
            engine.MemberIndexBytes());

  // Detach / re-attach keeps every tracker balanced (Release would abort
  // on underflow).
  engine.set_memory_tracker(nullptr);
  EXPECT_EQ(tracker.category_bytes("index.members"), 0);
  engine.set_memory_tracker(&tracker);
  EXPECT_EQ(tracker.category_bytes("index.members"),
            engine.MemberIndexBytes());

  // The facade surfaces the category through MemoryReport.
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(2)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine facade = std::move(built).value();
  ASSERT_TRUE(facade.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(facade.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(
      facade.Query(QuerySpec::Cell(lattice.o_layer_id(), o_key, 0, 2)).ok());
  bool found = false;
  for (const auto& [category, bytes] : facade.MemoryReport()) {
    if (category == "index.members") {
      found = true;
      EXPECT_GT(bytes, 0);
    }
  }
  EXPECT_TRUE(found) << "index.members missing from MemoryReport";
}

// ------------------------------------------------------------ error contract

TEST(MemberIndexTest, OutOfRangeCuboidReturnsTypedError) {
  WorkloadSpec spec = IndexSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  // Typed Status, not an RC_CHECK abort — on the empty engine (cuboid
  // validation precedes the no-data check) and after data.
  ShardedStreamEngine sharded(*schema, ChurnEngineOptions(), 4);
  const CuboidId past_end = CuboidLattice(**schema).num_cuboids();
  EXPECT_EQ(sharded.QueryCell(past_end, CellKey(2), 0, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sharded.QueryCell(-1, CellKey(2), 0, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sharded.QueryCellSeries(past_end, CellKey(2), 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sharded.QueryCell(0, CellKey(2), 0, 2).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sharded.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(sharded.SealThrough(spec.series_length - 1).ok());
  EXPECT_EQ(sharded.QueryCell(past_end, CellKey(2), 0, 2).status().code(),
            StatusCode::kInvalidArgument);
  // Bad level on the series query is typed too.
  EXPECT_EQ(sharded.QueryCellSeries(0, CellKey(2), 99).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- concurrency (TSan'd)

TEST(MemberIndexTest, ConcurrentIngestAndPointQueriesAreRaceFree) {
  WorkloadSpec spec = IndexSpec(/*tuples=*/80);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto pool = std::make_shared<ThreadPool>(3);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 8, pool);
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CuboidId o_id = lattice.o_layer_id();
  const CuboidId m_id = lattice.m_layer_id();
  const CellKey o_key = lattice.ProjectMLayerKey(cells[0].key, o_id);

  // Keys no generated cell occupies, owned by writer 0 alone (per-cell
  // tick monotonicity requires one writer per cell): each round ingests
  // the next one — the ingest-maintained append path under concurrent
  // probes.
  std::unordered_set<CellKey, CellKeyHash> used;
  for (const auto& cell : cells) used.insert(cell.key);
  std::vector<CellKey> fresh_keys;
  for (ValueId a = 0; a < 16 && fresh_keys.size() < 30; ++a) {
    for (ValueId b = 0; b < 16 && fresh_keys.size() < 30; ++b) {
      const CellKey candidate = Key2(a, b);
      if (used.find(candidate) == used.end()) fresh_keys.push_back(candidate);
    }
  }

  // Writers churn disjoint slices (including brand-new cells, which must
  // fold into active maps without tearing a concurrent probe) while
  // readers hammer the indexed point queries.
  constexpr int kWriters = 3;
  constexpr int kRounds = 30;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        const TimeTick tick = spec.series_length + round;
        for (size_t c = static_cast<size_t>(w); c < cells.size();
             c += kWriters) {
          ASSERT_TRUE(engine.Ingest({cells[c].key, tick, 2.0}).ok());
        }
        if (w == 0 && static_cast<size_t>(round) < fresh_keys.size()) {
          ASSERT_TRUE(
              engine
                  .Ingest({fresh_keys[static_cast<size_t>(round)], tick, 1.0})
                  .ok());
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto cell = engine.QueryCell(o_id, o_key, 0, 2);
        ASSERT_TRUE(cell.ok()) << cell.status().ToString();
        auto series = engine.QueryCellSeries(o_id, o_key, 1);
        ASSERT_TRUE(series.ok()) << series.status().ToString();
        if (r == 1) {
          // The m-layer probe exercises singleton member lists.
          auto one = engine.QueryCell(m_id, cells[0].key, 0, 2);
          ASSERT_TRUE(one.ok());
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  // Quiesced end state: the indexed gather equals the reference store's
  // scan after the same writes (each cell had one writer, so replaying them
  // round by round preserves every cell's tick order).
  ReferenceStore reference(*schema, ChurnEngineOptions());
  ASSERT_TRUE(reference.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  for (int round = 0; round < kRounds; ++round) {
    const TimeTick tick = spec.series_length + round;
    for (const auto& cell : cells) {
      ASSERT_TRUE(reference.Ingest({cell.key, tick, 2.0}).ok());
    }
    if (static_cast<size_t>(round) < fresh_keys.size()) {
      ASSERT_TRUE(
          reference.Ingest({fresh_keys[static_cast<size_t>(round)], tick, 1.0})
              .ok());
    }
  }
  ExpectMemberGathersIdentical(engine.GatherCellsMatching(o_id, o_key),
                               reference.GatherMatching(o_id, o_key), 2);
}

}  // namespace
}  // namespace regcube
