// The `drill` and `cold` workloads: an analyst session on a resident
// engine. After a sync preload, every round ingests a small delta at one
// new tick, seals it, asks for the top exceptions, drills into each, runs
// a batch of point queries and takes a snapshot. Every 4th round seals a
// level-0 slot, so the maintained cube alternates between patch rounds
// ("steady") and epoch-roll rebuild rounds ("roll") on a fixed schedule.
// `cold` runs the same rounds under a memory budget with a spill dir, so
// the frame store and the memory governor sit on the critical path.

#include <filesystem>

#include "workload.h"

namespace perfbench {
namespace {

using regcube::CellResult;
using regcube::Engine;
using regcube::QuerySpec;
using regcube::StreamTuple;
using regcube::TimeTick;

constexpr std::int64_t kDrillCells = 20'000;
constexpr std::int64_t kColdCells = 1'500;
constexpr std::int64_t kPreloadTicks = 64;
// Untimed warm-up: until round 16 the query window still holds preload
// ticks (dense data, a heavier cube), so timing starts once the window
// has rolled onto delta ticks only and the rounds are stationary.
constexpr int kWarmupRounds = 16;
constexpr int kMaxRounds = 1024;     // per session, warm-up included
constexpr int kDeltaPermille = 40;   // share of cells each delta touches
constexpr int kSessions = 3;         // fresh engine each: setup_s samples
// The oracle replay checks the maintained cube against a from-scratch
// cube on these rounds: 6 steady + 2 roll right after the warm-up.
constexpr int kScratchFrom = kWarmupRounds;
constexpr int kScratchTo = kWarmupRounds + 8;
// Budget for `cold`, per cell. An unbounded engine holds about 2.6 kB per
// cell; spilling starts only below what the tilt frames and indexes alone
// take (between 800 and 1000 B per cell), so at 800 B every round spills
// and faults frames back in.
constexpr std::int64_t kColdBudgetBytesPerCell = 800;

struct RoundInputs {
  std::vector<StreamTuple> preload;                 // ticks [0, preload)
  std::vector<std::vector<StreamTuple>> deltas;     // round -> one tick
  std::vector<std::vector<PointQuery>> points;      // round -> batch
};

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Every tuple comes from the generated stream: the preload is its first
/// kPreloadTicks ticks, and round r's delta is the subset of tick
/// kPreloadTicks + r on the cells the seed selects for that round.
RoundInputs MakeInputs(regcube::StreamGenerator& generator,
                       const regcube::CuboidLattice& lattice,
                       std::uint64_t seed) {
  const auto& cells = generator.cells();
  RoundInputs in;
  in.preload.resize(cells.size() * kPreloadTicks);
  in.deltas.resize(kMaxRounds);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const regcube::TimeSeries series = generator.SeriesFor(i);
    for (TimeTick t = 0; t < kPreloadTicks; ++t) {
      in.preload[static_cast<std::size_t>(t) * cells.size() + i] =
          StreamTuple{cells[i].key, t, series.at(t)};
    }
    for (int r = 0; r < kMaxRounds; ++r) {
      if (Mix(seed ^ Mix(static_cast<std::uint64_t>(r) << 32 | i)) % 1000 >=
          kDeltaPermille) {
        continue;
      }
      const TimeTick t = kPreloadTicks + r;
      in.deltas[static_cast<std::size_t>(r)].push_back(
          StreamTuple{cells[i].key, t, series.at(t)});
    }
  }
  in.points.reserve(kMaxRounds);
  for (int r = 0; r < kMaxRounds; ++r) {
    in.points.push_back(MakePointQueries(
        lattice, cells, Mix(seed + static_cast<std::uint64_t>(r)),
        kPointBatch));
  }
  return in;
}

// What one round answered, by part, so the oracle can pin a mismatch.
struct RoundAnswer {
  std::vector<CellResult> top;
  std::uint64_t top_digest = 0, drill_digest = 0, point_digest = 0;
};

struct RoundTimes {
  double visible_ms = 0, drill_ms = 0, point_us = 0, ingest_tps = 0;
};

RoundAnswer RunRound(Engine& engine, const RoundInputs& in, int r,
                     Tracer& tracer, OpCounts& ops, LayerStats& layer,
                     RoundTimes* times) {
  const TimeTick tick = kPreloadTicks + r;
  const bool roll = IsRollTick(tick);
  tracer.SetRound(r, roll ? "roll" : "steady");
  ScopedSpan round(tracer, "round");
  RoundAnswer answer;
  const std::vector<StreamTuple>& delta =
      in.deltas[static_cast<std::size_t>(r)];

  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(tracer, "stream_engine.batch");
    const regcube::IngestReport report = engine.IngestBatch(delta);
    ops.Record(Op::kReport, report.ok(), report.status.ToString());
  }
  const double batch_s = SecondsSince(start);
  {
    ScopedSpan span(tracer, "stream_engine.seal");
    const regcube::Status status = engine.SealThrough(tick);
    ops.Record(Op::kSeal, status.ok(), status.ToString());
  }
  {
    ScopedSpan span(tracer, "incremental_cube.top");
    auto top = engine.Query(QuerySpec::TopExceptions(kTopN, kLevel, kWindow));
    if (ops.Record(Op::kQuery, top.ok(),
                   top.ok() ? "" : top.status().ToString())) {
      answer.top = top->cells();
    }
  }
  times->visible_ms = SecondsSince(start) * 1e3;
  times->ingest_tps = static_cast<double>(delta.size()) / batch_s;
  answer.top_digest = DigestOf(answer.top);

  Digest drills, point_answers;
  times->drill_ms = DrillSession(engine, answer.top, tracer, ops, layer,
                                 drills);
  times->point_us = PointBatch(engine, in.points[static_cast<std::size_t>(r)],
                               tracer, ops, point_answers);
  answer.drill_digest = drills.value();
  answer.point_digest = point_answers.value();
  {
    ScopedSpan span(tracer, "sharded_engine.take");
    auto snapshot = engine.TakeSnapshot();
    if (ops.Record(Op::kQuery, snapshot->status().ok(),
                   snapshot->status().ToString())) {
      layer.RecordSnapshot(*snapshot);
    }
  }
  if (roll) {
    ScopedSpan span(tracer, "frame_store.compact");
    engine.CompactSegments();
  }
  if (tracer.enabled()) layer.RecordRoundEnd(engine);
  return answer;
}

/// Builds an engine and preloads it; false when the build itself fails.
bool BuildAndPreload(const regcube::EngineBuilder& builder,
                     const RoundInputs& in, OpCounts& ops,
                     std::unique_ptr<Engine>* engine) {
  auto built = builder.Build();
  if (!built.ok()) return false;
  *engine = std::make_unique<Engine>(std::move(built).value());
  const regcube::IngestReport report = (*engine)->IngestBatch(in.preload);
  ops.Record(Op::kReport, report.ok(), report.status.ToString());
  const regcube::Status status = (*engine)->SealThrough(kPreloadTicks - 1);
  ops.Record(Op::kSeal, status.ok(), status.ToString());
  return true;
}

/// The from-scratch answer of round r on `engine`'s current state: the
/// cube recomputed over a snapshot, drilled the same way, and the point
/// queries served by the snapshot's scan path instead of the member index.
RoundAnswer ScratchAnswer(Engine& engine, const RoundInputs& in, int r,
                          const std::vector<CellResult>& top,
                          OpCounts& ops) {
  RoundAnswer answer;
  auto snapshot = engine.TakeSnapshot();
  auto cube = snapshot->ComputeCube(kLevel, kWindow);
  if (!ops.Record(Op::kQuery, cube.ok(), "scratch cube")) return answer;
  const regcube::ExceptionPolicy& policy = engine.exception_policy();
  auto scratch_top = regcube::Query(
      *cube, policy, QuerySpec::TopExceptions(kTopN, kLevel, kWindow));
  if (ops.Record(Op::kQuery, scratch_top.ok(), "scratch top")) {
    answer.top_digest = DigestOf(scratch_top->cells());
  }
  Digest drills, point_answers;
  for (const CellResult& cell : top) {
    auto children = regcube::Query(
        *cube, policy,
        QuerySpec::DrillDown(cell.cuboid, cell.key, kLevel, kWindow));
    if (ops.Record(Op::kQuery, children.ok(), "scratch drill")) {
      drills.Add(children->cells());
    }
  }
  for (const PointQuery& point : in.points[static_cast<std::size_t>(r)]) {
    auto isb = snapshot->QueryCell(point.cuboid, point.key, kLevel, kWindow);
    if (ops.Record(Op::kQuery, isb.ok(), "scratch point")) point_answers.Add(*isb);
  }
  answer.drill_digest = drills.value();
  answer.point_digest = point_answers.value();
  return answer;
}

bool RunRounds(const Options& options, bool cold, Tracer& tracer,
               RunReport* report) {
  // No read pool: a second and third thread would make the rounds' times
  // hinge on what else the machine runs on the other cores.
  const ThreadBudget threads{2, false, 1};
  if (!CheckThreadBudget(threads, options, report)) return false;
  const std::int64_t cells = cold ? kColdCells : kDrillCells;
  const regcube::WorkloadSpec spec =
      MakeSpec(options.seed, cells, kPreloadTicks + kMaxRounds);
  auto schema = regcube::MakeWorkloadSchemaPtr(spec);
  if (!schema.ok()) return false;
  regcube::StreamGenerator generator(spec);
  const regcube::CuboidLattice lattice(**schema);
  const RoundInputs in = MakeInputs(generator, lattice, options.seed);

  // Restart cycles per session: enough for a steady median (a restart
  // writes and maps files, so it is noisier than the rounds); a cold
  // restart is cheap at its small cell count, so it takes more of them.
  const int restart_cycles = cold ? 10 : 6;
  const std::int64_t budget = cold ? cells * kColdBudgetBytesPerCell : 0;
  report->Config("cells", cells);
  report->Config("preload_ticks", kPreloadTicks);
  report->Config("delta_permille", kDeltaPermille);
  report->Config("point_batch", kPointBatch);
  report->Config("sessions", kSessions);
  report->Config("warmup_rounds", kWarmupRounds);
  report->Config("restart_cycles_per_session", restart_cycles);
  report->Config("budget_bytes", budget);

  const regcube::EngineBuilder unbounded = BaseBuilder(*schema, threads);
  regcube::EngineBuilder builder = unbounded;
  regcube::EngineBuilder reopen = unbounded;
  if (cold) {
    builder.SetMemoryBudget(budget).SetSpillDir(options.work_dir + "/spill");
    reopen.SetMemoryBudget(budget).SetSpillDir(options.work_dir +
                                               "/spill-reopen");
  }
  const std::string ckpt_dir = options.work_dir + "/checkpoint";

  OpCounts& ops = report->ops;
  LayerStats layer;
  Samples setup_s, ingest_tps, visible_ms, drill_ms, point_us, restart_ms;
  SpeedProbes probes;
  // answers[s][r]: what session s answered in round r.
  std::vector<std::vector<RoundAnswer>> answers(kSessions);
  int timed_rounds = 0;
  const double session_seconds =
      static_cast<double>(options.seconds) / kSessions;
  for (int s = 0; s < kSessions; ++s) {
    Tracer off(false);
    LayerStats warmup_layer;
    RoundTimes times;
    for (int i = 0; i < 3; ++i) probes.Take();
    const double setup_start = Now();
    std::unique_ptr<Engine> engine;
    if (!BuildAndPreload(builder, in, ops, &engine)) return false;
    for (int r = 0; r < kWarmupRounds; ++r) {
      answers[s].push_back(
          RunRound(*engine, in, r, off, ops, warmup_layer, &times));
    }
    setup_s.Add(Now() - setup_start, setup_start);

    layer.last_spill = engine->SpillStats();
    const Clock::time_point session_start = Clock::now();
    for (int r = kWarmupRounds;
         r < kMaxRounds && SecondsSince(session_start) < session_seconds;
         ++r) {
      probes.Take();
      const double round_start = Now();
      answers[s].push_back(
          RunRound(*engine, in, r, tracer, ops, layer, &times));
      visible_ms.Add(times.visible_ms, round_start);
      drill_ms.Add(times.drill_ms, round_start);
      point_us.Add(times.point_us, round_start);
      ingest_tps.Add(times.ingest_tps, round_start);
      ++timed_rounds;
    }
    layer.RecordPhaseEnd(*engine);

    // Each reopened engine's first answer must equal the last round's.
    const std::uint64_t before = answers[s].back().top_digest;
    for (int cycle = 0; cycle < restart_cycles; ++cycle) {
      tracer.SetRound(cycle, "");
      std::unique_ptr<Engine> reopened;
      std::vector<CellResult> first;
      probes.Take();
      const double cycle_start = Now();
      restart_ms.Add(RestartCycle(*engine, reopen, ckpt_dir, tracer, ops,
                                  &reopened, &first),
                     cycle_start);
      CheckEqual(ops, "reopened top", before, DigestOf(first));
      reopened.reset();
      std::filesystem::remove_all(ckpt_dir);
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // Oracle replay on an unbounded engine: every round every session ran
  // (for `drill` the first rounds after warm-up), plus a from-scratch cube
  // on the sampled rounds.
  std::size_t replay_rounds = kScratchTo;
  if (cold) {
    for (const auto& session : answers) {
      replay_rounds = std::max(replay_rounds, session.size());
    }
  }
  {
    Tracer off(false);
    LayerStats unused;
    RoundTimes times;
    std::unique_ptr<Engine> oracle;
    if (!BuildAndPreload(unbounded, in, ops, &oracle)) return false;
    for (std::size_t r = 0; r < replay_rounds; ++r) {
      const RoundAnswer expected = RunRound(
          *oracle, in, static_cast<int>(r), off, ops, unused, &times);
      for (const auto& session : answers) {
        if (r >= session.size()) continue;
        CheckEqual(ops, "round top", expected.top_digest,
                   session[r].top_digest);
        CheckEqual(ops, "round drill", expected.drill_digest,
                   session[r].drill_digest);
        CheckEqual(ops, "round points", expected.point_digest,
                   session[r].point_digest);
      }
      if (static_cast<int>(r) >= kScratchFrom &&
          static_cast<int>(r) < kScratchTo) {
        const RoundAnswer scratch =
            ScratchAnswer(*oracle, in, static_cast<int>(r), expected.top, ops);
        CheckEqual(ops, "scratch top", scratch.top_digest,
                   expected.top_digest);
        CheckEqual(ops, "scratch drill", scratch.drill_digest,
                   expected.drill_digest);
        CheckEqual(ops, "scratch points", scratch.point_digest,
                   expected.point_digest);
      }
    }
  }

  report->Config("timed_rounds", timed_rounds);
  report->Config("oracle_replay_rounds",
                 static_cast<std::int64_t>(replay_rounds));
  ReportTimes(report, probes,
              {{"setup_s", "s", &setup_s, 50, false},
               {"ingest_tps", "1/s", &ingest_tps, 50, true},
               {"visible_ms", "ms", &visible_ms, 50, false},
               {"visible_p90_ms", "ms", &visible_ms, 90, false},
               {"drill_ms", "ms", &drill_ms, 50, false},
               {"point_us", "us", &point_us, 50, false},
               {"restart_ms", "ms", &restart_ms, 50, false}});
  report->EndToEnd("peak_rss_mb", "MB", peak_rss_mb);
  report->Config("restart_samples",
                 static_cast<std::int64_t>(restart_ms.size()));
  if (tracer.enabled()) EmitLayerMetrics(tracer, layer, report);
  return true;
}

}  // namespace

bool RunDrill(const Options& options, Tracer& tracer, RunReport* report) {
  return RunRounds(options, false, tracer, report);
}

bool RunCold(const Options& options, Tracer& tracer, RunReport* report) {
  return RunRounds(options, true, tracer, report);
}

}  // namespace perfbench
