// E10 — the snapshot-read figure: ingest absorbed while ComputeCube runs.
// A cube read locks each shard only to load its published cells, then
// cubes lock-free. This harness runs writer threads that ingest
// continuously while the main thread recomputes the cube in a loop, and
// reports how many tuples the writers absorbed during the cubing window
// (§4.5: continuous ingest next to analysis). The row is a level with no
// baseline beside it, not a comparison. The loop runs at least `rounds`
// cube rounds and at least kMinCubeSeconds, so even a small engine times a
// window long enough to read, and the row reports the rounds it ran.
//
// Phase 2 — steady-state churn: N cells sealed once, then rounds in which
// only p% of cells receive new observations before a snapshot is taken.
// Measures the delta gather (every cell's own copy-on-write frame shared;
// the writers already cloned the dirty ones) against a copy-everything
// full gather, in both latency and bytes the gather copied, plus the
// member-only point-query path against a full-snapshot scan and the member
// index against a project-every-key scan. The baselines come from the
// tests' reference store (tests/reference_store.h), fed the same writes:
// the library keeps one implementation of each read. Every comparison
// RC_CHECKs bit-identity — the delta machinery is a caching change, not a
// numerics change.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "tests/reference_store.h"

namespace regcube {
namespace {

using testing_util::ReferenceStore;

// The cubing loop's minimum wall time: at CI size one cube round takes a
// few milliseconds, too short a window to say anything about ingest.
constexpr double kMinCubeSeconds = 0.2;

struct ModeResult {
  double cube_s = 0.0;                // wall time of the cubing loop
  double ingested_during_cube = 0.0;  // tuples writers absorbed meanwhile
  int rounds = 0;                     // cube rounds the loop ran
  std::size_t o_cells = 0;
};

/// Runs at least `min_rounds` cube computations, and keeps going until
/// kMinCubeSeconds have passed, with `threads` writers ingesting
/// continuously (each writer owns a disjoint cell slice and replays the
/// stream at ever-later ticks, keeping per-cell ticks monotone).
ModeResult RunMode(const WorkloadSpec& spec,
                   const std::vector<StreamTuple>& stream, int threads,
                   int min_rounds) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
  options.policy = ExceptionPolicy(0.05);
  auto pool = std::make_shared<ThreadPool>();
  auto engine = std::make_unique<ShardedStreamEngine>(*schema, options,
                                                      /*num_shards=*/8, pool);

  IngestReport seed = engine->IngestBatch(stream);
  RC_CHECK(seed.ok()) << seed.status.ToString();
  RC_CHECK(engine->SealThrough(spec.series_length - 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> ingested{0};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    writers.emplace_back([&, w] {
      // Replay rounds shifted forward in time so ticks stay monotone.
      for (TimeTick round = 1; !stop.load(std::memory_order_relaxed);
           ++round) {
        const TimeTick shift = round * spec.series_length;
        for (const StreamTuple& t : stream) {
          if (t.key.Hash() % static_cast<std::uint64_t>(threads) !=
              static_cast<std::uint64_t>(w)) {
            continue;
          }
          // Reads never seal, so no writer is ever bounced behind one.
          Status s = engine->Ingest({t.key, t.tick + shift, t.value});
          RC_CHECK(s.ok()) << s.ToString();
          ingested.fetch_add(1, std::memory_order_relaxed);
          if (stop.load(std::memory_order_relaxed)) return;
        }
      }
    });
  }

  ModeResult result;
  const std::int64_t before = ingested.load();
  Stopwatch cube_timer;
  while (result.rounds < min_rounds ||
         cube_timer.ElapsedSeconds() < kMinCubeSeconds) {
    auto cube = engine->ComputeCube(0, 8);
    RC_CHECK(cube.ok()) << cube.status().ToString();
    result.o_cells = cube->o_layer().size();
    ++result.rounds;
  }
  result.cube_s = cube_timer.ElapsedSeconds();
  result.ingested_during_cube =
      static_cast<double>(ingested.load() - before);

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  return result;
}

/// Phase 2: the O(changed-cells) figure. Seeds `num_cells` cells, seals,
/// then per round dirties `dirty_pct`% of them at the open tick and takes
/// a delta gather of the engine and a full gather of the reference store
/// fed the same writes, checking they agree bit for bit.
void RunChurn(int argc, char** argv, bench::JsonWriter& json) {
  const std::int64_t num_cells = bench::ArgInt(argc, argv, "cells", 20'000);
  const std::int64_t dirty_pct = bench::ArgInt(argc, argv, "dirty", 10);
  const int rounds =
      static_cast<int>(bench::ArgInt(argc, argv, "churn_rounds", 5));
  const int shards =
      static_cast<int>(bench::ArgInt(argc, argv, "churn_shards", 8));

  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;  // key space 10^6 >= any realistic `cells`
  spec.num_tuples = num_cells;
  spec.series_length = 8;
  spec.seed = 31;

  bench::PrintHeader(StrPrintf(
      "Steady-state churn: delta vs full gather (%lld cells, %lld%% dirty "
      "per round, %d rounds)",
      static_cast<long long>(num_cells), static_cast<long long>(dirty_pct),
      rounds));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
  options.policy = ExceptionPolicy(0.05);
  auto pool = std::make_shared<ThreadPool>();
  ShardedStreamEngine engine(*schema, options, shards, pool);

  ReferenceStore reference(*schema, options);

  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  IngestReport seed = engine.IngestBatch(stream);
  RC_CHECK(seed.ok()) << seed.status.ToString();
  RC_CHECK(engine.SealThrough(spec.series_length - 1).ok());
  RC_CHECK(reference.IngestBatch(stream).ok());
  RC_CHECK(reference.SealThrough(spec.series_length - 1).ok());
  engine.GatherAlignedCells();  // warm the shard publications

  const TimeTick open_tick = spec.series_length;  // inside the open quarter
  const std::int64_t dirty_n = num_cells * dirty_pct / 100;
  double full_s = 0.0, delta_s = 0.0;
  double full_bytes = 0.0, delta_bytes = 0.0;
  // Gather results live across rounds so each timed gather also pays the
  // release of the previous round's run — the steady-state cost of either
  // mode, not just its allocation half.
  ShardedStreamEngine::GatheredCells full, delta;
  for (int round = 0; round < rounds; ++round) {
    for (std::int64_t j = 0; j < dirty_n; ++j) {
      const auto& cell =
          cells[static_cast<size_t>((round * dirty_n + j) %
                                    num_cells)];
      RC_CHECK(engine.Ingest({cell.key, open_tick, 1.0}).ok());
      RC_CHECK(reference.Ingest({cell.key, open_tick, 1.0}).ok());
    }
    Stopwatch full_timer;
    full = reference.Gather();
    full_s += full_timer.ElapsedSeconds();
    full_bytes += static_cast<double>(full.stats.bytes_copied);

    Stopwatch delta_timer;
    delta = engine.GatherAlignedCells();
    delta_s += delta_timer.ElapsedSeconds();
    delta_bytes += static_cast<double>(delta.stats.bytes_copied);
    RC_CHECK(delta.stats.materialized <= dirty_n)
        << "delta gather copied " << delta.stats.materialized
        << " frames for " << dirty_n << " dirty cells";

    // Bit-identity: the delta gather is a caching strategy, not a new read.
    auto full_window = SnapshotWindowOf(*full.cells, 0, 2);
    auto delta_window = SnapshotWindowOf(*delta.cells, 0, 2);
    RC_CHECK(full_window.ok() && delta_window.ok());
    RC_CHECK(full_window->size() == delta_window->size());
    for (size_t i = 0; i < full_window->size(); ++i) {
      RC_CHECK((*full_window)[i].key == (*delta_window)[i].key &&
               (*full_window)[i].measure == (*delta_window)[i].measure)
          << "delta gather diverged at row " << i;
    }
  }

  // Point queries: member-only gather vs a scan over a full snapshot.
  const CuboidId o_id = engine.lattice().o_layer_id();
  const CellKey o_key =
      engine.lattice().ProjectMLayerKey(cells[0].key, o_id);
  Stopwatch member_timer;
  auto member_series = engine.QueryCellSeries(o_id, o_key, 0);
  const double member_s = member_timer.ElapsedSeconds();
  RC_CHECK(member_series.ok()) << member_series.status().ToString();
  Stopwatch scan_timer;
  auto scan_gather = reference.Gather();
  auto scan_series = SnapshotCellSeriesOf(
      *scan_gather.cells, engine.lattice(),
      options.tilt_policy->num_levels(), o_id, o_key, 0);
  const double scan_s = scan_timer.ElapsedSeconds();
  RC_CHECK(scan_series.ok()) << scan_series.status().ToString();
  RC_CHECK(*member_series == *scan_series)
      << "member-only QueryCellSeries diverged from the full-snapshot scan";

  // Point phase — the index figure: the ingest-maintained per-cuboid
  // member index (hash probe, O(matching members)) against the reference
  // store's project-every-key scan (O(cells)), over many distinct o-layer
  // cells. Bit-identity is RC_CHECKed per probe — the index is a lookup
  // strategy, not a numerics change.
  const int point_reps = std::max<int>(
      1, static_cast<int>(bench::ArgInt(argc, argv, "point_reps", 200)));
  std::vector<CellKey> probe_keys;
  probe_keys.reserve(static_cast<size_t>(point_reps));
  for (int r = 0; r < point_reps; ++r) {
    const auto& cell =
        cells[static_cast<size_t>((r * 7919) % num_cells)];
    probe_keys.push_back(engine.lattice().ProjectMLayerKey(cell.key, o_id));
  }
  engine.GatherCellsMatching(o_id, probe_keys[0]);  // activate the index
  double indexed_s = 0.0, point_scan_s = 0.0;
  std::int64_t indexed_members = 0;
  for (const CellKey& key : probe_keys) {
    Stopwatch indexed_timer;
    auto indexed = engine.GatherCellsMatching(o_id, key);
    indexed_s += indexed_timer.ElapsedSeconds();
    indexed_members += static_cast<std::int64_t>(indexed.cells.size());

    Stopwatch point_scan_timer;
    auto scanned = reference.GatherMatching(o_id, key);
    point_scan_s += point_scan_timer.ElapsedSeconds();

    RC_CHECK(indexed.cells.size() == scanned.cells.size())
        << "indexed member set diverged for " << key.ToString();
    for (size_t i = 0; i < indexed.cells.size(); ++i) {
      RC_CHECK(indexed.cells[i].key == scanned.cells[i].key);
      const auto& a = indexed.cells[i].frame->RawSlots(0);
      const auto& b = scanned.cells[i].frame->RawSlots(0);
      RC_CHECK(a.size() == b.size());
      for (size_t s = 0; s < a.size(); ++s) {
        RC_CHECK(a[s].interval == b[s].interval &&
                 a[s].sum_z == b[s].sum_z && a[s].sum_tz == b[s].sum_tz)
            << "indexed gather diverged at slot " << s << " of "
            << indexed.cells[i].key.ToString();
      }
    }
  }
  const double point_speedup =
      indexed_s > 0 ? point_scan_s / indexed_s : 0.0;
  const std::int64_t index_bytes = engine.MemberIndexBytes();

  const double gather_speedup = delta_s > 0 ? full_s / delta_s : 0.0;
  const double series_speedup = member_s > 0 ? scan_s / member_s : 0.0;
  bench::PrintRow({"mode", "gather(s)", "bytes copied", "speedup"});
  bench::PrintRow({"full", StrPrintf("%.4f", full_s),
                   StrPrintf("%.0f", full_bytes), "1.00"});
  bench::PrintRow({"delta", StrPrintf("%.4f", delta_s),
                   StrPrintf("%.0f", delta_bytes),
                   StrPrintf("%.2f", gather_speedup)});
  std::printf("\nTakeSnapshot: %.2fx faster at %lld%% dirty; "
              "QueryCellSeries (member-only): %.2fx vs full-snapshot scan\n",
              gather_speedup, static_cast<long long>(dirty_pct),
              series_speedup);
  std::printf("point queries (indexed vs scan, %d probes, avg %.1f members):"
              " %.2fx; index bytes %lld\n",
              point_reps,
              static_cast<double>(indexed_members) / point_reps,
              point_speedup, static_cast<long long>(index_bytes));
  json.Row({{"phase", "\"point\""},
            {"cells", StrPrintf("%lld", static_cast<long long>(num_cells))},
            {"reps", StrPrintf("%d", point_reps)},
            {"indexed_s", StrPrintf("%.6f", indexed_s)},
            {"scan_s", StrPrintf("%.6f", point_scan_s)},
            {"point_speedup", StrPrintf("%.3f", point_speedup)},
            {"avg_members",
             StrPrintf("%.2f",
                       static_cast<double>(indexed_members) / point_reps)},
            {"index_bytes",
             StrPrintf("%lld", static_cast<long long>(index_bytes))}});
  json.Row({{"phase", "\"churn\""},
            {"cells", StrPrintf("%lld", static_cast<long long>(num_cells))},
            {"dirty_pct", StrPrintf("%lld",
                                    static_cast<long long>(dirty_pct))},
            {"rounds", StrPrintf("%d", rounds)},
            {"full_gather_s", StrPrintf("%.6f", full_s)},
            {"delta_gather_s", StrPrintf("%.6f", delta_s)},
            {"gather_speedup", StrPrintf("%.3f", gather_speedup)},
            {"full_bytes_copied", StrPrintf("%.0f", full_bytes)},
            {"delta_bytes_copied", StrPrintf("%.0f", delta_bytes)},
            {"series_member_s", StrPrintf("%.6f", member_s)},
            {"series_full_scan_s", StrPrintf("%.6f", scan_s)},
            {"series_speedup", StrPrintf("%.3f", series_speedup)}});
}

void Run(int argc, char** argv) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;
  spec.num_tuples = bench::ArgInt(argc, argv, "tuples", 20'000);
  spec.series_length = bench::ArgInt(argc, argv, "ticks", 64);
  spec.seed = 29;
  const int threads =
      static_cast<int>(bench::ArgInt(argc, argv, "threads", 4));
  const int rounds = static_cast<int>(bench::ArgInt(argc, argv, "rounds", 5));

  bench::PrintHeader(StrPrintf(
      "Snapshot reads under concurrent ingest (%s, %d writer threads, "
      ">= %d cube rounds and >= %.1f s)",
      spec.Name().c_str(), threads, rounds, kMinCubeSeconds));

  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  bench::PrintRow({"mode", "rounds", "cube(s)", "ingest during cube",
                   "ingest/s", "o-cells"});
  bench::JsonWriter json("snapshot_reads");
  const ModeResult r = RunMode(spec, stream, threads, rounds);
  const double rate = r.ingested_during_cube / r.cube_s;
  bench::PrintRow({"snapshot", StrPrintf("%d", r.rounds),
                   StrPrintf("%.3f", r.cube_s),
                   StrPrintf("%.0f", r.ingested_during_cube),
                   StrPrintf("%.0f", rate), StrPrintf("%zu", r.o_cells)});
  json.Row({{"mode", "\"snapshot\""},
            {"threads", StrPrintf("%d", threads)},
            {"min_cube_rounds", StrPrintf("%d", rounds)},
            {"cube_rounds", StrPrintf("%d", r.rounds)},
            {"cube_s", StrPrintf("%.6f", r.cube_s)},
            {"ingested_during_cube",
             StrPrintf("%.0f", r.ingested_during_cube)},
            {"ingest_per_s", StrPrintf("%.1f", rate)},
            {"o_cells", StrPrintf("%zu", r.o_cells)}});
  RunChurn(argc, argv, json);
  json.Write();
}

}  // namespace
}  // namespace regcube

int main(int argc, char** argv) {
  regcube::Run(argc, argv);
  return 0;
}
