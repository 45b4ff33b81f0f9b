// Memory-governed storage tier: what the global budget + cold-frame spill
// actually cost. Phase 1 runs the workload unbounded to find the natural
// tilt-frame peak and the hot gather time. Phase 2 reruns it with the
// budget clamped to a fraction of that peak (default 25%): ingest must be
// lossless (zero failures), the resident tilt-frame bytes must land at or
// under the budget once the post-gather enforcement has run, and the
// first snapshot after a spill pays the cold fault-in cost — measured
// directly and as a ratio against the unbounded engine's hot gather.
// Phase 3 checkpoints the budgeted engine and times the full
// restart-to-first-query path through EngineBuilder::OpenFrom. Phase 4
// churns the spilled cells (re-ingest -> fault-in -> release) so the
// cold tier accumulates garbage, then runs the online compactor and
// checks the steady-state disk bound (garbage <= 3x live). Phase 5
// replays the workload with deterministic write faults armed: spill
// must degrade (errors counted, cells kept resident), never corrupt —
// the faulted engine's sealed window is compared bitwise against the
// unbounded oracle. Results land in BENCH_memory_budget.json.
//
// Workload knobs (key=value): tuples ticks shards slices budget_pct top
//                             churn_rounds

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "regcube/io/fault_injector.h"
#include "regcube/io/frame_store.h"

namespace regcube {
namespace {

Engine BuildEngine(const std::shared_ptr<const CubeSchema>& schema,
                   int shards, std::int64_t budget_bytes,
                   const std::string& spill_dir) {
  EngineBuilder builder;
  builder.SetSchema(schema)
      .SetTiltPolicy(
          MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16}))
      .SetExceptionPolicy(ExceptionPolicy(0.05))
      .SetShardCount(shards);
  if (budget_bytes > 0) {
    builder.SetMemoryBudget(budget_bytes).SetSpillDir(spill_dir);
  }
  auto engine = builder.Build();
  RC_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Ingests `stream` in `slices` tick bands with a snapshot between each
/// band — the mixed read/write shape the budget governs (snapshots drain
/// the dirty set, so the next gather's enforcement can spill). Returns
/// the wall seconds; RC_CHECKs that not one tuple was refused.
double DriveSliced(Engine& engine, const std::vector<StreamTuple>& stream,
                   std::int64_t series_length, int slices) {
  std::vector<std::vector<StreamTuple>> bands(
      static_cast<size_t>(slices));
  for (const StreamTuple& t : stream) {
    std::int64_t band = t.tick * slices / series_length;
    if (band >= slices) band = slices - 1;
    bands[static_cast<size_t>(band)].push_back(t);
  }
  Stopwatch timer;
  for (const std::vector<StreamTuple>& band : bands) {
    if (band.empty()) continue;
    const IngestReport report = engine.IngestBatch(band);
    RC_CHECK(report.ok()) << report.status.ToString();
    auto snapshot = engine.TakeSnapshot();
    RC_CHECK(snapshot != nullptr);
  }
  RC_CHECK(engine.SealThrough(series_length - 1).ok());
  auto sealed = engine.TakeSnapshot();
  RC_CHECK(sealed != nullptr);
  return timer.ElapsedSeconds();
}

std::int64_t TiltFrameBytes(const Engine& engine) {
  for (const auto& entry : engine.MemoryReport()) {
    if (entry.first == "stream.tilt_frames") return entry.second;
  }
  return 0;
}

/// Dirties exactly one cell (a late tick on the first stream's key) and
/// times the snapshot that follows: on a spilled engine every other cell
/// is cold, so this is the cold-read path; unbounded it is the hot one.
double TimeOneCellRefresh(Engine& engine, const StreamTuple& probe,
                          TimeTick tick, std::int64_t* fault_ins) {
  StreamTuple late = probe;
  late.tick = tick;
  RC_CHECK(engine.Ingest(late).ok());
  Stopwatch timer;
  auto snapshot = engine.TakeSnapshot();
  const double seconds = timer.ElapsedSeconds();
  RC_CHECK(snapshot != nullptr);
  if (fault_ins != nullptr) *fault_ins = snapshot->gather_stats().fault_ins;
  return seconds;
}

void Run(int argc, char** argv) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 8;
  spec.num_tuples = bench::ArgInt(argc, argv, "tuples", 12'000);
  spec.series_length = bench::ArgInt(argc, argv, "ticks", 32);
  spec.seed = 47;
  const int shards = static_cast<int>(bench::ArgInt(argc, argv, "shards", 4));
  const int slices = static_cast<int>(bench::ArgInt(argc, argv, "slices", 8));
  const std::int64_t budget_pct =
      bench::ArgInt(argc, argv, "budget_pct", 25);
  const int churn_rounds =
      static_cast<int>(bench::ArgInt(argc, argv, "churn_rounds", 6));
  const auto top =
      static_cast<std::size_t>(bench::ArgInt(argc, argv, "top", 10));
  const std::string spill_dir = "bench_memory_budget.spill";
  const std::string ckpt_dir = "bench_memory_budget.ckpt";

  bench::PrintHeader(StrPrintf(
      "Memory budget: spill tier at %lld%% of the unbounded peak (%s, "
      "%d shards)",
      static_cast<long long>(budget_pct), spec.Name().c_str(), shards));

  auto schema = MakeWorkloadSchemaPtr(spec);
  RC_CHECK(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  RC_CHECK(!stream.empty());
  bench::JsonWriter json("memory_budget");

  // ---- Phase 1: unbounded baseline ------------------------------------
  Engine oracle = BuildEngine(*schema, shards, 0, "");
  const double unbounded_s =
      DriveSliced(oracle, stream, spec.series_length, slices);
  const std::int64_t peak =
      oracle.memory_tracker().category_peak_bytes("stream.tilt_frames");
  RC_CHECK(peak > 0);
  const double hot_s =
      TimeOneCellRefresh(oracle, stream[0], spec.series_length, nullptr);
  auto oracle_top = oracle.Query(QuerySpec::TopExceptions(top, 0, 1));
  RC_CHECK(oracle_top.ok()) << oracle_top.status().ToString();

  // ---- Phase 2: the same workload under budget ------------------------
  const std::int64_t budget =
      std::max<std::int64_t>(1, peak * budget_pct / 100);
  RC_CHECK(EnsureDirectory(spill_dir).ok());
  Engine budgeted = BuildEngine(*schema, shards, budget, spill_dir);
  const double budgeted_s =
      DriveSliced(budgeted, stream, spec.series_length, slices);
  std::int64_t fault_ins = 0;
  const double cold_s = TimeOneCellRefresh(budgeted, stream[0],
                                           spec.series_length, &fault_ins);
  const std::int64_t resident = TiltFrameBytes(budgeted);
  const SpillStats spill = budgeted.SpillStats();
  RC_CHECK(spill.enforcements > 0) << "budget never kicked in; shrink it";
  RC_CHECK(resident <= budget)
      << "resident " << resident << " over budget " << budget
      << " after the post-gather enforcement";
  // Same stream, zero refusals on both sides: the answers must agree.
  auto budgeted_top = budgeted.Query(QuerySpec::TopExceptions(top, 0, 1));
  RC_CHECK(budgeted_top.ok()) << budgeted_top.status().ToString();
  RC_CHECK(budgeted_top->cells().size() == oracle_top->cells().size())
      << "spill changed the query answer";

  bench::PrintRow({"run", "ingest(s)", "tilt MB", "budget MB", "disk MB",
                   "cold cells", "refresh(ms)"});
  bench::PrintRow({"unbounded", StrPrintf("%.3f", unbounded_s),
                   StrPrintf("%.2f", bench::ToMb(peak)), "-", "-", "0",
                   StrPrintf("%.2f", hot_s * 1e3)});
  bench::PrintRow(
      {"budgeted", StrPrintf("%.3f", budgeted_s),
       StrPrintf("%.2f", bench::ToMb(resident)),
       StrPrintf("%.2f", bench::ToMb(budget)),
       StrPrintf("%.2f", bench::ToMb(spill.disk_bytes)),
       StrPrintf("%lld", static_cast<long long>(spill.spilled_cells)),
       StrPrintf("%.2f", cold_s * 1e3)});
  std::printf(
      "\n  cells %lld, resident/budget %.2f, cold/hot refresh %.2fx, "
      "%lld fault-ins (p99 %.1f us)\n",
      static_cast<long long>(budgeted.num_cells()),
      static_cast<double>(resident) / static_cast<double>(budget),
      hot_s > 0.0 ? cold_s / hot_s : 0.0,
      static_cast<long long>(fault_ins), spill.fault_in_p99_us);
  json.Row({{"phase", "\"budget\""},
            {"shards", StrPrintf("%d", shards)},
            {"cells", StrPrintf("%lld",
                                static_cast<long long>(budgeted.num_cells()))},
            {"unbounded_peak_bytes",
             StrPrintf("%lld", static_cast<long long>(peak))},
            {"budget_bytes",
             StrPrintf("%lld", static_cast<long long>(budget))},
            {"resident_bytes",
             StrPrintf("%lld", static_cast<long long>(resident))},
            {"resident_over_budget",
             StrPrintf("%.4f",
                       static_cast<double>(resident) /
                           static_cast<double>(budget))},
            {"disk_bytes",
             StrPrintf("%lld", static_cast<long long>(spill.disk_bytes))},
            {"spilled_cells",
             StrPrintf("%lld", static_cast<long long>(spill.spilled_cells))},
            {"enforcements",
             StrPrintf("%lld", static_cast<long long>(spill.enforcements))},
            {"ingest_unbounded_s", StrPrintf("%.6f", unbounded_s)},
            {"ingest_budgeted_s", StrPrintf("%.6f", budgeted_s)},
            {"hot_refresh_s", StrPrintf("%.6f", hot_s)},
            {"cold_refresh_s", StrPrintf("%.6f", cold_s)},
            {"cold_over_hot",
             StrPrintf("%.4f", hot_s > 0.0 ? cold_s / hot_s : 0.0)},
            {"fault_ins", StrPrintf("%lld",
                                    static_cast<long long>(fault_ins))},
            {"fault_in_p99_us", StrPrintf("%.3f", spill.fault_in_p99_us)}});

  // ---- Phase 3: checkpoint + warm restart -----------------------------
  Stopwatch persist;
  RC_CHECK(budgeted.Checkpoint(ckpt_dir).ok());
  const double persist_s = persist.ElapsedSeconds();
  // Reopen unbounded and WITHOUT the live engine's spill dir: the live
  // engine holds that directory's lock, so a second engine there would be
  // refused. Checkpoint files are attached read-only and are safe.
  EngineBuilder reopener;
  reopener.SetSchema(*schema)
      .SetTiltPolicy(
          MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16}))
      .SetExceptionPolicy(ExceptionPolicy(0.05))
      .SetShardCount(shards);
  Stopwatch restart;
  auto reopened = reopener.OpenFrom(ckpt_dir);
  RC_CHECK(reopened.ok()) << reopened.status().ToString();
  auto first = reopened->Query(QuerySpec::TopExceptions(top, 0, 1));
  const double restart_s = restart.ElapsedSeconds();
  RC_CHECK(first.ok()) << first.status().ToString();
  RC_CHECK(reopened->num_cells() == budgeted.num_cells())
      << "warm restart lost cells";
  RC_CHECK(first->cells().size() == budgeted_top->cells().size())
      << "warm restart changed the query answer";

  bench::PrintRow({"restart", "persist(s)", "reopen+query(s)", "cells"});
  bench::PrintRow(
      {"", StrPrintf("%.3f", persist_s), StrPrintf("%.3f", restart_s),
       StrPrintf("%lld", static_cast<long long>(reopened->num_cells()))});
  json.Row({{"phase", "\"restart\""},
            {"shards", StrPrintf("%d", shards)},
            {"checkpoint_s", StrPrintf("%.6f", persist_s)},
            {"restart_to_first_query_s", StrPrintf("%.6f", restart_s)},
            {"cells", StrPrintf("%lld",
                                static_cast<long long>(
                                    reopened->num_cells()))}});

  // ---- Phase 4: churn + online compaction -----------------------------
  // Re-ingesting a spilled cell faults it in and releases its old block:
  // garbage only a compaction rewrite can shed. After `churn_rounds`
  // waves over half the cells the compactor must hold the steady-state
  // disk bound — garbage never more than 3x the live cold bytes.
  const std::string churn_dir = "bench_memory_budget.churn";
  RC_CHECK(EnsureDirectory(churn_dir).ok());
  EngineBuilder churn_builder;
  churn_builder.SetSchema(*schema)
      .SetTiltPolicy(
          MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16}))
      .SetExceptionPolicy(ExceptionPolicy(0.05))
      .SetShardCount(shards)
      .SetMemoryBudget(budget)
      .SetSpillDir(churn_dir)
      .SetCompactThreshold(0.5)
      .SetCompactMinBytes(1);
  auto churn_built = churn_builder.Build();
  RC_CHECK(churn_built.ok()) << churn_built.status().ToString();
  Engine churned = std::move(churn_built).value();
  DriveSliced(churned, stream, spec.series_length, slices);
  Stopwatch churn_timer;
  StreamGenerator churn_gen(spec);
  for (int round = 0; round < churn_rounds; ++round) {
    std::vector<StreamTuple> wave;
    for (std::size_t c = 0; c < churn_gen.cells().size(); c += 2) {
      wave.push_back({churn_gen.cells()[c].key, spec.series_length, 1.0});
    }
    const IngestReport report = churned.IngestBatch(wave);
    RC_CHECK(report.ok()) << report.status.ToString();
  }
  const std::int64_t garbage_before = churned.SpillStats().garbage_bytes;
  churned.CompactSegments();
  const double churn_s = churn_timer.ElapsedSeconds();
  const SpillStats compacted = churned.SpillStats();
  const double garbage_over_live =
      static_cast<double>(compacted.garbage_bytes) /
      static_cast<double>(std::max<std::int64_t>(compacted.live_bytes, 1));
  RC_CHECK(compacted.compaction_failures == 0)
      << compacted.compaction_failures << " compactions failed";
  RC_CHECK(garbage_over_live <= 3.0)
      << "cold tier unbounded: garbage " << compacted.garbage_bytes
      << " vs live " << compacted.live_bytes;
  auto churn_snapshot = churned.TakeSnapshot();
  RC_CHECK(churn_snapshot != nullptr);

  bench::PrintRow({"churn", "rounds", "garbage before", "garbage after",
                   "live", "reclaimed", "compactions"});
  bench::PrintRow(
      {"", StrPrintf("%d", churn_rounds),
       StrPrintf("%.2f", bench::ToMb(garbage_before)),
       StrPrintf("%.2f", bench::ToMb(compacted.garbage_bytes)),
       StrPrintf("%.2f", bench::ToMb(compacted.live_bytes)),
       StrPrintf("%.2f", bench::ToMb(compacted.reclaimed_bytes)),
       StrPrintf("%lld", static_cast<long long>(compacted.compactions))});
  json.Row({{"phase", "\"churn\""},
            {"shards", StrPrintf("%d", shards)},
            {"rounds", StrPrintf("%d", churn_rounds)},
            {"garbage_before_bytes",
             StrPrintf("%lld", static_cast<long long>(garbage_before))},
            {"garbage_bytes",
             StrPrintf("%lld",
                       static_cast<long long>(compacted.garbage_bytes))},
            {"live_bytes",
             StrPrintf("%lld", static_cast<long long>(compacted.live_bytes))},
            {"garbage_over_live", StrPrintf("%.4f", garbage_over_live)},
            {"compactions",
             StrPrintf("%lld", static_cast<long long>(compacted.compactions))},
            {"reclaimed_bytes",
             StrPrintf("%lld",
                       static_cast<long long>(compacted.reclaimed_bytes))},
            {"disk_bytes",
             StrPrintf("%lld", static_cast<long long>(compacted.disk_bytes))},
            {"churn_s", StrPrintf("%.6f", churn_s)}});

  // ---- Phase 5: the same workload on a faulty disk --------------------
  // Every second spill write fails. The contract under fault: ingest
  // stays lossless, failed spills keep their cells resident (counted,
  // retried), and the sealed answers stay bit-identical to the unbounded
  // oracle's — degraded, never wrong.
  const std::string fault_dir = "bench_memory_budget.fault";
  RC_CHECK(EnsureDirectory(fault_dir).ok());
  FaultInjector injector;
  injector.FailEvery(FaultOp::kWrite, 2);
  EngineBuilder fault_builder;
  fault_builder.SetSchema(*schema)
      .SetTiltPolicy(
          MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16}))
      .SetExceptionPolicy(ExceptionPolicy(0.05))
      .SetShardCount(shards)
      .SetMemoryBudget(budget)
      .SetSpillDir(fault_dir)
      .SetFaultInjector(&injector);
  auto fault_built = fault_builder.Build();
  RC_CHECK(fault_built.ok()) << fault_built.status().ToString();
  Engine faulted = std::move(fault_built).value();
  const double faulted_s =
      DriveSliced(faulted, stream, spec.series_length, slices);
  // Mirror the oracle's late probe so both engines saw identical writes.
  TimeOneCellRefresh(faulted, stream[0], spec.series_length, nullptr);
  const SpillStats degraded = faulted.SpillStats();
  RC_CHECK(injector.injected_failures() > 0)
      << "fault phase never hit the injector";
  RC_CHECK(degraded.io_errors + degraded.retries > 0)
      << "injected write faults never reached the spill path";
  auto want_window = oracle.TakeSnapshot()->Window(0, 4);
  auto got_window = faulted.TakeSnapshot()->Window(0, 4);
  RC_CHECK(want_window.ok()) << want_window.status().ToString();
  RC_CHECK(got_window.ok()) << got_window.status().ToString();
  RC_CHECK(want_window->size() == got_window->size())
      << "faulted engine lost cells";
  for (std::size_t i = 0; i < want_window->size(); ++i) {
    RC_CHECK((*want_window)[i].key == (*got_window)[i].key &&
             (*want_window)[i].measure == (*got_window)[i].measure)
        << "faulted engine answer diverged at cell " << i;
  }

  bench::PrintRow({"fault", "ingest(s)", "injected", "io errors", "retries",
                   "window cells"});
  bench::PrintRow(
      {"", StrPrintf("%.3f", faulted_s),
       StrPrintf("%lld",
                 static_cast<long long>(injector.injected_failures())),
       StrPrintf("%lld", static_cast<long long>(degraded.io_errors)),
       StrPrintf("%lld", static_cast<long long>(degraded.retries)),
       StrPrintf("%lld", static_cast<long long>(want_window->size()))});
  std::printf(
      "\n  %lld injected write failures degraded %lld spills (answers "
      "bit-identical to the unbounded oracle)\n",
      static_cast<long long>(injector.injected_failures()),
      static_cast<long long>(degraded.io_errors));
  json.Row({{"phase", "\"fault\""},
            {"shards", StrPrintf("%d", shards)},
            {"ingest_faulted_s", StrPrintf("%.6f", faulted_s)},
            {"injected_failures",
             StrPrintf("%lld",
                       static_cast<long long>(injector.injected_failures()))},
            {"io_errors",
             StrPrintf("%lld", static_cast<long long>(degraded.io_errors))},
            {"retries",
             StrPrintf("%lld", static_cast<long long>(degraded.retries))},
            {"window_cells",
             StrPrintf("%lld",
                       static_cast<long long>(want_window->size()))},
            {"answers_match", "1"}});
  json.Write();
}

}  // namespace
}  // namespace regcube

int main(int argc, char** argv) {
  regcube::Run(argc, argv);
  return 0;
}
