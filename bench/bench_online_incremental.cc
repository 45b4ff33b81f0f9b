// E8 — the §4.5 claim: "In stream data applications ... one just needs to
// incrementally compute the newly generated stream data. In this case, the
// computation time should be substantially shorter."
//
// Phase 1 (maintained cube): the O(delta) figure this bench exists to
// prove. N cells are seeded and two level-0 slots sealed from the global
// clock's viewpoint (one pacer cell drives the clock; the population lags
// behind it), then per round p% of the cells receive late data into the
// globally sealed slot — the out-of-order-across-cells churn shape. The
// maintained cube (ShardedStreamEngine::ComputeCubeShared) folds only
// those changed cells into the memoized m/o-layers and exception set; the
// from-scratch path gathers and re-runs H-cubing over the whole window.
// Each timer pays one fold of the shard publications (republished by an
// untimed gather first), so `speedup` compares gather + cube on both
// sides. Both are RC_CHECKed bit-identical every round — the incremental
// cube is a maintenance strategy, not a numerics change.
//
// Phase 2 (epoch rolls): a fixed 20k-cell population where every round
// writes 1% of the cells and seals a level-0 slot, so every cell's window
// moves. The maintained cube rolls the H-tree it kept (Theorem 3.2
// measures refolded on an unchanged structure, every cuboid refolded from
// its fold index); the from-scratch path re-runs H-cubing. Timed like
// phase 1, and RC_CHECKed bit-identical every round.
//
// Phase 3 (legacy replay): the original E8 comparison — one long-lived
// engine absorbing batches vs a from-scratch engine re-ingesting the full
// history per batch.
//
// Emits BENCH_online_incremental.json like the other benches.

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench_util.h"

namespace regcube {
namespace {

void CheckCubesIdentical(const RegressionCube& a, const RegressionCube& b) {
  RC_CHECK(a.m_layer().size() == b.m_layer().size());
  for (const auto& [key, isb] : a.m_layer()) {
    auto it = b.m_layer().find(key);
    RC_CHECK(it != b.m_layer().end() && it->second == isb)
        << "m-layer diverged at " << key.ToString();
  }
  RC_CHECK(a.o_layer().size() == b.o_layer().size());
  for (const auto& [key, isb] : a.o_layer()) {
    auto it = b.o_layer().find(key);
    RC_CHECK(it != b.o_layer().end() && it->second == isb)
        << "o-layer diverged at " << key.ToString();
  }
  RC_CHECK(a.exceptions().total_cells() == b.exceptions().total_cells());
  for (CuboidId c : a.exceptions().Cuboids()) {
    const CellMap* want = a.exceptions().CellsOf(c);
    const CellMap* got = b.exceptions().CellsOf(c);
    RC_CHECK(got != nullptr) << "exception cuboid " << c << " missing";
    RC_CHECK(want->size() == got->size());
    for (const auto& [key, isb] : *want) {
      auto it = got->find(key);
      RC_CHECK(it != got->end() && it->second == isb)
          << "exceptions diverged at " << key.ToString();
    }
  }
}

/// Phase 1: maintained vs from-scratch cube under steady-state late-data
/// churn at several dirty ratios.
void RunMaintained(int argc, char** argv, bench::JsonWriter& json) {
  const std::int64_t num_cells = bench::ArgInt(argc, argv, "cells", 100'000);
  const int rounds = static_cast<int>(bench::ArgInt(argc, argv, "rounds", 5));
  const int shards = static_cast<int>(bench::ArgInt(argc, argv, "shards", 8));
  const int level = 0, k = 2;

  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;  // key space 10^6 >= any realistic `cells`
  spec.num_tuples = num_cells;
  spec.series_length = 8;  // ticks 0..7: the cells' own frames end inside
                           // [4,8); the pacer seals it from the global view
  spec.seed = 31;

  bench::PrintHeader(StrPrintf(
      "Maintained cube vs from-scratch H-cubing (%lld cells, %d shards, "
      "%d rounds per dirty ratio, late churn into the sealed window)",
      static_cast<long long>(num_cells), shards, rounds));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
  options.policy = ExceptionPolicy(0.05);
  auto pool = std::make_shared<ThreadPool>();

  bench::PrintRow({"dirty%", "incremental(s)", "from-scratch(s)", "speedup",
                   "patched cells", "memo MB"});
  for (std::int64_t dirty_pct : {1, 5, 10}) {
    ShardedStreamEngine engine(*schema, options, shards, pool);
    StreamGenerator gen(spec);
    const auto& cells = gen.cells();
    IngestReport seed = engine.IngestBatch(gen.GenerateStream());
    RC_CHECK(seed.ok()) << seed.status.ToString();
    // The pacer drives the global clock into the open unit [8,12): the
    // aligned view seals [0,4) and [4,8) while every seeded cell's own
    // frame still sits at tick 7 — late data at tick 7 lands in the
    // globally sealed slot without rolling the window epoch. It must be a
    // key no generated cell occupies, or a seeded cell would be dragged to
    // tick 11 and reject its later tick-7 churn.
    std::unordered_set<CellKey, CellKeyHash> taken;
    taken.reserve(cells.size());
    for (const auto& cell : cells) taken.insert(cell.key);
    CellKey pacer = cells[0].key;
    for (ValueId v = 0; v < 100; ++v) {
      CellKey candidate = cells[0].key;
      candidate.set(0, v);
      if (taken.count(candidate) == 0) {
        pacer = candidate;
        break;
      }
    }
    RC_CHECK(taken.count(pacer) == 0) << "no free pacer key";
    RC_CHECK(engine.Ingest({pacer, 11, 1.0}).ok());

    // Warm: the rebuild (which builds the tree the memo keeps), plus one
    // representative patch round (the same dirty count the timed rounds
    // use), so the per-cuboid fold indexes the first patch builds are
    // amortized into the steady state they belong to before the clock
    // starts.
    RC_CHECK(engine.ComputeCubeShared(level, k).ok());
    const std::int64_t dirty_n =
        std::max<std::int64_t>(1, num_cells * dirty_pct / 100);
    for (std::int64_t j = 0; j < dirty_n; ++j) {
      RC_CHECK(
          engine.Ingest({cells[static_cast<size_t>(j % num_cells)].key, 7,
                         0.5})
              .ok());
    }
    RC_CHECK(engine.ComputeCubeShared(level, k).ok());

    double incr_s = 0.0, scratch_s = 0.0;
    const auto stats_before = engine.cube_memo_stats();
    for (int round = 0; round < rounds; ++round) {
      for (std::int64_t j = 0; j < dirty_n; ++j) {
        const auto& cell = cells[static_cast<size_t>(
            (round * dirty_n + j) % num_cells)];
        RC_CHECK(engine.Ingest({cell.key, 7, 0.25 * (round + 1)}).ok());
      }

      // Each side pays exactly one fold of already-fresh publications:
      // the untimed gather republishes the written shards, the scratch
      // timer then gathers again (a fold; the memo is not at this
      // revision yet) and cubes it, and ComputeCubeShared folds once more
      // for the memo. Scratch goes first: after the maintained query the
      // memo's run would serve the scratch gather without a fold.
      (void)engine.GatherAlignedCells();

      Stopwatch scratch_timer;
      auto run = engine.GatherAlignedCells();
      auto scratch = SnapshotCubeOf(*schema, *run.cells, options, level, k,
                                    pool.get());
      RC_CHECK(scratch.ok()) << scratch.status().ToString();
      scratch_s += scratch_timer.ElapsedSeconds();

      Stopwatch incr_timer;
      auto maintained = engine.ComputeCubeShared(level, k);
      RC_CHECK(maintained.ok()) << maintained.status().ToString();
      incr_s += incr_timer.ElapsedSeconds();

      CheckCubesIdentical(*scratch, **maintained);
    }
    const auto stats = engine.cube_memo_stats();
    RC_CHECK(stats.patches > stats_before.patches)
        << "late churn never exercised the patch path";
    const std::int64_t patched =
        stats.patched_cells - stats_before.patched_cells;
    const double speedup = incr_s > 0 ? scratch_s / incr_s : 0.0;
    const std::int64_t memo_bytes = engine.CubeMemoBytes();

    bench::PrintRow({StrPrintf("%lld", static_cast<long long>(dirty_pct)),
                     StrPrintf("%.4f", incr_s), StrPrintf("%.4f", scratch_s),
                     StrPrintf("%.2fx", speedup),
                     StrPrintf("%lld", static_cast<long long>(patched)),
                     StrPrintf("%.1f", bench::ToMb(memo_bytes))});
    json.Row({{"phase", "\"maintained\""},
              {"cells", StrPrintf("%lld", static_cast<long long>(num_cells))},
              {"dirty_pct",
               StrPrintf("%lld", static_cast<long long>(dirty_pct))},
              {"rounds", StrPrintf("%d", rounds)},
              {"shards", StrPrintf("%d", shards)},
              {"incremental_s", StrPrintf("%.6f", incr_s)},
              {"scratch_s", StrPrintf("%.6f", scratch_s)},
              {"speedup", StrPrintf("%.3f", speedup)},
              {"patched_cells",
               StrPrintf("%lld", static_cast<long long>(patched))},
              {"memo_bytes",
               StrPrintf("%lld", static_cast<long long>(memo_bytes))}});
  }
}

/// Phase 2: epoch rolls. A fixed population of 20k cells; every timed
/// round writes 1% of them into the open quarter and then seals it, which
/// moves every cell's level-0 window to a new interval. The maintained
/// cube rolls its kept H-tree (rebase, m-layer rewrite, every cuboid
/// refolded from its fold index); the from-scratch path re-runs H-cubing
/// over the same gather.
void RunRoll(int argc, char** argv, bench::JsonWriter& json) {
  constexpr std::int64_t kCells = 20'000;
  constexpr std::int64_t kDirtyPct = 1;
  const int rounds = static_cast<int>(bench::ArgInt(argc, argv, "rounds", 5));
  const int shards = static_cast<int>(bench::ArgInt(argc, argv, "shards", 8));
  const int level = 0, k = 2;

  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;
  spec.num_tuples = kCells;
  spec.series_length = 16;  // ticks 0..15: four sealed quarters
  spec.seed = 37;

  bench::PrintHeader(StrPrintf(
      "Maintained cube vs from-scratch H-cubing across epoch rolls (%lld "
      "cells, %d shards, %d rounds, %lld%% dirty, a level-0 seal per round)",
      static_cast<long long>(kCells), shards, rounds,
      static_cast<long long>(kDirtyPct)));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
  options.policy = ExceptionPolicy(0.05);
  auto pool = std::make_shared<ThreadPool>();
  ShardedStreamEngine engine(*schema, options, shards, pool);
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  IngestReport seed = engine.IngestBatch(gen.GenerateStream());
  RC_CHECK(seed.ok()) << seed.status.ToString();
  RC_CHECK(engine.SealThrough(spec.series_length - 1).ok());

  const std::int64_t dirty_n = kCells * kDirtyPct / 100;
  TimeTick quarter = spec.series_length / 4;
  auto roll = [&](int round) {
    const TimeTick tick = quarter * 4 + round % 4;
    for (std::int64_t j = 0; j < dirty_n; ++j) {
      const auto& cell =
          cells[static_cast<size_t>((round * dirty_n + j) % kCells)];
      RC_CHECK(engine.Ingest({cell.key, tick, 0.5 * (round + 2)}).ok());
    }
    RC_CHECK(engine.SealThrough(quarter * 4 + 3).ok());
    ++quarter;
  };

  // Warm: the rebuild, then one untimed roll (it builds the fold indexes).
  RC_CHECK(engine.ComputeCubeShared(level, k).ok());
  roll(0);
  RC_CHECK(engine.ComputeCubeShared(level, k).ok());

  double incr_s = 0.0, scratch_s = 0.0;
  const auto stats_before = engine.cube_memo_stats();
  // The last round's run stays pinned through the timed calls, as a held
  // snapshot pins it in a live engine: neither side then frees the frames
  // the seal replaced inside its timer.
  auto previous = engine.GatherAlignedCells();
  for (int round = 1; round <= rounds; ++round) {
    roll(round);
    // One fold of fresh publications a side, as in the maintained phase.
    (void)engine.GatherAlignedCells();

    Stopwatch scratch_timer;
    auto run = engine.GatherAlignedCells();
    auto scratch = SnapshotCubeOf(*schema, *run.cells, options, level, k,
                                  pool.get());
    RC_CHECK(scratch.ok()) << scratch.status().ToString();
    scratch_s += scratch_timer.ElapsedSeconds();

    Stopwatch incr_timer;
    auto maintained = engine.ComputeCubeShared(level, k);
    RC_CHECK(maintained.ok()) << maintained.status().ToString();
    incr_s += incr_timer.ElapsedSeconds();

    CheckCubesIdentical(*scratch, **maintained);
    previous = std::move(run);
  }
  const auto stats = engine.cube_memo_stats();
  const std::int64_t rolls = stats.rolls - stats_before.rolls;
  RC_CHECK(rolls == rounds) << "a roll round did not roll: " << rolls
                            << " rolls over " << rounds << " rounds";
  const double speedup = incr_s > 0 ? scratch_s / incr_s : 0.0;
  const std::int64_t memo_bytes = engine.CubeMemoBytes();

  bench::PrintRow({"incremental(s)", "from-scratch(s)", "speedup", "rolls",
                   "memo MB"});
  bench::PrintRow({StrPrintf("%.4f", incr_s), StrPrintf("%.4f", scratch_s),
                   StrPrintf("%.2fx", speedup),
                   StrPrintf("%lld", static_cast<long long>(rolls)),
                   StrPrintf("%.1f", bench::ToMb(memo_bytes))});
  json.Row({{"phase", "\"roll\""},
            {"cells", StrPrintf("%lld", static_cast<long long>(kCells))},
            {"dirty_pct", StrPrintf("%lld", static_cast<long long>(kDirtyPct))},
            {"rounds", StrPrintf("%d", rounds)},
            {"shards", StrPrintf("%d", shards)},
            {"incremental_s", StrPrintf("%.6f", incr_s)},
            {"scratch_s", StrPrintf("%.6f", scratch_s)},
            {"speedup", StrPrintf("%.3f", speedup)},
            {"rolls", StrPrintf("%lld", static_cast<long long>(rolls))},
            {"memo_bytes",
             StrPrintf("%lld", static_cast<long long>(memo_bytes))}});
}

/// Phase 3: the original E8 replay comparison, kept as the paper's framing.
void RunReplay(int argc, char** argv, bench::JsonWriter& json) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;
  spec.num_tuples = bench::ArgInt(argc, argv, "tuples", 5'000);
  spec.series_length = bench::ArgInt(argc, argv, "ticks", 128);
  spec.seed = 7;

  bench::PrintHeader(StrPrintf(
      "Online incremental vs full recompute (%s, %lld ticks/stream)",
      spec.Name().c_str(), static_cast<long long>(spec.series_length)));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamGenerator gen(spec);
  std::vector<StreamTuple> stream = gen.GenerateStream();

  auto make_engine = [&schema] {
    auto engine = EngineBuilder()
                      .SetSchema(*schema)
                      .SetTiltPolicy(MakeUniformTiltPolicy(
                          {{"quarter", 8}, {"hour", 8}}, {4, 16}))
                      .SetExceptionPolicy(ExceptionPolicy(0.05))
                      .Build();
    RC_CHECK(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  };

  Engine incremental = make_engine();
  const int kBatches = 8;
  const size_t batch_size = stream.size() / kBatches;

  bench::PrintRow({"batch", "incr-ingest(s)", "incr-cube(s)",
                   "scratch-total(s)", "speedup"});
  double total_incremental = 0.0, total_scratch = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const size_t begin = static_cast<size_t>(b) * batch_size;
    const size_t end =
        b == kBatches - 1 ? stream.size() : begin + batch_size;

    Stopwatch ingest_timer;
    for (size_t i = begin; i < end; ++i) {
      RC_CHECK(incremental.Ingest(stream[i]).ok());
    }
    const TimeTick sealed = stream[end - 1].tick;
    RC_CHECK(incremental.SealThrough(sealed).ok());
    const double ingest_s = ingest_timer.ElapsedSeconds();

    const int sealed_quarters = static_cast<int>((sealed + 1) / 4);
    const int k = std::min(sealed_quarters, 8);
    if (k < 1) continue;

    Stopwatch cube_timer;
    auto cube = incremental.ComputeCube(0, k);
    RC_CHECK(cube.ok()) << cube.status().ToString();
    const double cube_s = cube_timer.ElapsedSeconds();

    // From scratch: replay the entire history, then compute.
    Stopwatch scratch_timer;
    Engine scratch = make_engine();
    for (size_t i = 0; i < end; ++i) {
      RC_CHECK(scratch.Ingest(stream[i]).ok());
    }
    RC_CHECK(scratch.SealThrough(sealed).ok());
    auto scratch_cube = scratch.ComputeCube(0, k);
    RC_CHECK(scratch_cube.ok());
    const double scratch_s = scratch_timer.ElapsedSeconds();

    total_incremental += ingest_s + cube_s;
    total_scratch += scratch_s;
    bench::PrintRow({StrPrintf("%d", b), StrPrintf("%.3f", ingest_s),
                     StrPrintf("%.3f", cube_s), StrPrintf("%.3f", scratch_s),
                     StrPrintf("%.2fx", scratch_s / (ingest_s + cube_s))});
  }
  std::printf("totals: incremental %.3f s vs from-scratch %.3f s (%.2fx)\n",
              total_incremental, total_scratch,
              total_scratch / total_incremental);
  std::printf("engine tilt-frame memory: %s across %lld cells\n",
              FormatBytes(incremental.MemoryBytes()).c_str(),
              static_cast<long long>(incremental.num_cells()));
  json.Row({{"phase", "\"replay\""},
            {"tuples",
             StrPrintf("%lld", static_cast<long long>(spec.num_tuples))},
            {"batches", StrPrintf("%d", kBatches)},
            {"incremental_s", StrPrintf("%.6f", total_incremental)},
            {"scratch_s", StrPrintf("%.6f", total_scratch)},
            {"speedup",
             StrPrintf("%.3f", total_scratch / total_incremental)}});
}

void Run(int argc, char** argv) {
  bench::JsonWriter json("online_incremental");
  RunMaintained(argc, argv, json);
  RunRoll(argc, argv, json);
  RunReplay(argc, argv, json);
  json.Write();
}

}  // namespace
}  // namespace regcube

int main(int argc, char** argv) {
  regcube::Run(argc, argv);
  return 0;
}
