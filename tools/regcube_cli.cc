// regcube_cli — command-line front end for the regression-cube library.
//
//   regcube_cli generate --workload D3L3C10T10K [--seed N] --out tuples.bin
//   regcube_cli cube     --workload D3L3C10T10K --in tuples.bin
//                        [--algorithm mo|pp] [--rate 0.01 | --threshold X]
//                        [--out cube.bin]
//   regcube_cli report   --workload D3L3C10T10K --in cube.bin
//                        --threshold X [--top N]
//   regcube_cli stream   --workload D2L2C4T500 [--ticks N] [--shards N]
//                        [--algorithm mo|pp] [--threshold X] [--window K]
//                        [--top N] [--seed N] [--ingest sync|async]
//                        [--queue-capacity N]
//                        [--backpressure block|drop-oldest|reject]
//                        [--mem-budget BYTES[k|m|g]] [--spill-dir PATH]
//                        [--compact-threshold R] [--compact-min-bytes B]
//                        [--fail-io op:N] [--checkpoint PATH]
//                        (on-line path: ingest a generated stream, seal,
//                        drill the exceptions; with a budget the engine
//                        evicts/spills to stay under it, compacts its
//                        spill segments when garbage exceeds R x live,
//                        and --checkpoint persists + warm-restarts to
//                        time recovery. --fail-io arms deterministic I/O
//                        faults — from the Nth matching syscall on — to
//                        demonstrate the typed degraded paths.)
//   regcube_cli selftest [--dir PATH]   (generate -> cube -> report round
//                                        trip in a scratch directory)
//
// The workload name doubles as the schema description (the cube format does
// not embed schemas), so `cube` and `report` must receive the same
// --workload used by `generate`.
//
// Everything below speaks the facade: regcube/api/regcube.h plus common/
// utilities only.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "regcube/api/regcube.h"
#include "regcube/common/stopwatch.h"
#include "regcube/common/str.h"
#include "regcube/io/fault_injector.h"

namespace regcube {
namespace {

/// Minimal --flag value parser: flags are "--name value"; anything else is
/// an error. Returns the positional command (argv[1]).
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv) {
    if (argc < 2) {
      return Status::InvalidArgument("missing command");
    }
    Args args;
    args.command_ = argv[1];
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        return Status::InvalidArgument(
            StrPrintf("expected --flag, got \"%s\"", argv[i]));
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument(
            StrPrintf("flag %s needs a value", argv[i]));
      }
      args.values_[argv[i] + 2] = argv[i + 1];
      ++i;
    }
    return args;
  }

  const std::string& command() const { return command_; }

  Result<std::string> GetString(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag --" + name);
    }
    return it->second;
  }

  std::string GetStringOr(const std::string& name,
                          const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDoubleOr(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  std::int64_t GetIntOr(const std::string& name, std::int64_t fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
};

/// "64m" -> 64 MiB. Bare numbers are bytes; suffixes k/m/g (case-
/// insensitive) scale by powers of 1024.
Result<std::int64_t> ParseByteSize(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty byte size");
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  std::int64_t scale = 1;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k': case 'K': scale = 1LL << 10; break;
      case 'm': case 'M': scale = 1LL << 20; break;
      case 'g': case 'G': scale = 1LL << 30; break;
      default:
        return Status::InvalidArgument(
            StrPrintf("bad byte size \"%s\" (use N, Nk, Nm, or Ng)",
                      text.c_str()));
    }
  }
  if (value < 0) {
    return Status::InvalidArgument(
        StrPrintf("byte size \"%s\" must be >= 0", text.c_str()));
  }
  return static_cast<std::int64_t>(value * static_cast<double>(scale));
}

/// "--fail-io write:3" -> fail the 3rd (and every later) write the storage
/// tier issues. Ops: open, write, read, mmap, rename.
Status ArmFaultInjector(const std::string& text, FaultInjector* injector) {
  const size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        StrPrintf("bad --fail-io \"%s\" (use op:N, e.g. write:3)",
                  text.c_str()));
  }
  const std::string op_name = text.substr(0, colon);
  const std::int64_t nth = std::atoll(text.c_str() + colon + 1);
  if (nth <= 0) {
    return Status::InvalidArgument(
        StrPrintf("bad --fail-io count in \"%s\" (must be >= 1)",
                  text.c_str()));
  }
  FaultOp op;
  if (op_name == "open") {
    op = FaultOp::kOpen;
  } else if (op_name == "write") {
    op = FaultOp::kWrite;
  } else if (op_name == "read") {
    op = FaultOp::kRead;
  } else if (op_name == "mmap") {
    op = FaultOp::kMmap;
  } else if (op_name == "rename") {
    op = FaultOp::kRename;
  } else {
    return Status::InvalidArgument(StrPrintf(
        "unknown --fail-io op \"%s\" (open|write|read|mmap|rename)",
        op_name.c_str()));
  }
  injector->FailNth(op, nth, /*repeat=*/true);
  return Status::OK();
}

Result<std::shared_ptr<const CubeSchema>> SchemaFor(const Args& args) {
  RC_ASSIGN_OR_RETURN(std::string name, args.GetString("workload"));
  auto spec = WorkloadSpec::Parse(name);
  if (!spec.ok()) return spec.status();
  return MakeWorkloadSchemaPtr(*spec);
}

Status RunGenerate(const Args& args) {
  RC_ASSIGN_OR_RETURN(std::string name, args.GetString("workload"));
  RC_ASSIGN_OR_RETURN(std::string out, args.GetString("out"));
  auto spec = WorkloadSpec::Parse(name);
  if (!spec.ok()) return spec.status();
  spec->seed = static_cast<std::uint64_t>(args.GetIntOr("seed", 42));
  spec->series_length = args.GetIntOr("ticks", 32);

  Stopwatch timer;
  StreamGenerator gen(*spec);
  std::vector<MLayerTuple> tuples = gen.GenerateMLayerTuples();
  RC_RETURN_IF_ERROR(WriteFile(out, EncodeMLayerTuples(tuples)));
  std::printf("generated %zu m-layer streams (%s, seed %llu) in %.2f s -> %s\n",
              tuples.size(), spec->Name().c_str(),
              static_cast<unsigned long long>(spec->seed),
              timer.ElapsedSeconds(), out.c_str());
  return Status::OK();
}

Status RunCube(const Args& args) {
  RC_ASSIGN_OR_RETURN(std::shared_ptr<const CubeSchema> schema,
                      SchemaFor(args));
  RC_ASSIGN_OR_RETURN(std::string in, args.GetString("in"));
  RC_ASSIGN_OR_RETURN(std::string data, ReadFile(in));
  RC_ASSIGN_OR_RETURN(std::vector<MLayerTuple> tuples,
                      DecodeMLayerTuples(data));

  double threshold = args.GetDoubleOr("threshold", -1.0);
  if (args.Has("rate")) {
    CuboidLattice lattice(*schema);
    Stopwatch calib;
    threshold = CalibrateExceptionThreshold(lattice, tuples,
                                            args.GetDoubleOr("rate", 0.01));
    std::printf("calibrated threshold %.6g for rate %.3g (%.2f s)\n",
                threshold, args.GetDoubleOr("rate", 0.01),
                calib.ElapsedSeconds());
  }
  if (threshold < 0.0) {
    return Status::InvalidArgument("provide --threshold or --rate");
  }

  const std::string algorithm = args.GetStringOr("algorithm", "mo");
  Stopwatch timer;
  Result<RegressionCube> cube = Status::Internal("unset");
  if (algorithm == "mo") {
    MoCubingOptions options;
    options.policy = ExceptionPolicy(threshold);
    cube = ComputeMoCubing(schema, tuples, options);
  } else if (algorithm == "pp") {
    PopularPathOptions options;
    options.policy = ExceptionPolicy(threshold);
    cube = ComputePopularPathCubing(schema, tuples, options);
  } else {
    return Status::InvalidArgument(
        StrPrintf("unknown --algorithm \"%s\" (mo|pp)", algorithm.c_str()));
  }
  if (!cube.ok()) return cube.status();
  std::printf("%s cubing: %.2f s\n", algorithm.c_str(),
              timer.ElapsedSeconds());
  std::printf("  %s\n", cube->ToString().c_str());
  std::printf("  %s\n", cube->stats().ToString().c_str());

  if (args.Has("out")) {
    RC_ASSIGN_OR_RETURN(std::string out, args.GetString("out"));
    RC_RETURN_IF_ERROR(WriteFile(out, EncodeRegressionCube(*cube)));
    std::printf("cube saved -> %s\n", out.c_str());
  }
  return Status::OK();
}

Status RunReport(const Args& args) {
  RC_ASSIGN_OR_RETURN(std::shared_ptr<const CubeSchema> schema,
                      SchemaFor(args));
  RC_ASSIGN_OR_RETURN(std::string in, args.GetString("in"));
  RC_ASSIGN_OR_RETURN(std::string data, ReadFile(in));
  RC_ASSIGN_OR_RETURN(RegressionCube cube,
                      DecodeRegressionCube(schema, data));
  const double threshold = args.GetDoubleOr("threshold", 0.0);
  const std::size_t top = static_cast<std::size_t>(args.GetIntOr("top", 10));

  std::printf("%s\n", cube.ToString().c_str());
  ExceptionPolicy policy(threshold);

  std::printf("\ntop %zu exception cells:\n", top);
  RC_ASSIGN_OR_RETURN(
      QueryResult top_cells,
      Query(cube, policy, QuerySpec::TopExceptions(top, 0, 1)));
  for (const CellResult& cell : top_cells.cells()) {
    std::printf("  %s  [%s]\n",
                RenderCellWith(*schema, cube.lattice(), cell).c_str(),
                cube.lattice().CuboidName(cell.cuboid).c_str());
  }

  std::printf("\no-layer exceptions and their supporters:\n");
  const CuboidId o_id = cube.lattice().o_layer_id();
  RC_ASSIGN_OR_RETURN(QueryResult o_exceptions,
                      Query(cube, policy, QuerySpec::ExceptionsAt(o_id, 0, 1)));
  int shown = 0;
  for (const CellResult& root : o_exceptions.cells()) {
    std::printf("  %s\n",
                RenderCellWith(*schema, cube.lattice(), root).c_str());
    RC_ASSIGN_OR_RETURN(
        QueryResult supporters,
        Query(cube, policy, QuerySpec::Supporters(root.cuboid, root.key, 0, 1)));
    std::printf("    %zu exceptional descendants\n",
                supporters.cells().size());
    if (++shown == 5) break;
  }
  return Status::OK();
}

Status RunStream(const Args& args) {
  RC_ASSIGN_OR_RETURN(std::string name, args.GetString("workload"));
  auto spec = WorkloadSpec::Parse(name);
  if (!spec.ok()) return spec.status();
  spec->seed = static_cast<std::uint64_t>(args.GetIntOr("seed", 42));
  spec->series_length = args.GetIntOr("ticks", 64);
  RC_ASSIGN_OR_RETURN(std::shared_ptr<const CubeSchema> schema,
                      MakeWorkloadSchemaPtr(*spec));

  const double threshold = args.GetDoubleOr("threshold", 0.05);
  const int shards = static_cast<int>(args.GetIntOr("shards", 4));
  const std::string algorithm = args.GetStringOr("algorithm", "mo");
  const std::string ingest_mode = args.GetStringOr("ingest", "sync");
  const std::string backpressure = args.GetStringOr("backpressure", "block");

  EngineBuilder builder;
  builder.SetSchema(schema)
      .SetTiltPolicy(MakeUniformTiltPolicy({{"quarter", 16}, {"hour", 16}},
                                           {4, 16}))
      .SetExceptionPolicy(ExceptionPolicy(threshold))
      .SetShardCount(shards);
  if (algorithm == "pp") {
    builder.SetAlgorithm(Engine::Algorithm::kPopularPath);
  } else if (algorithm != "mo") {
    return Status::InvalidArgument(
        StrPrintf("unknown --algorithm \"%s\" (mo|pp)", algorithm.c_str()));
  }
  if (ingest_mode == "async") {
    builder.SetIngestMode(IngestMode::kAsync);
  } else if (ingest_mode != "sync") {
    return Status::InvalidArgument(StrPrintf(
        "unknown --ingest \"%s\" (sync|async)", ingest_mode.c_str()));
  }
  builder.SetQueueCapacity(args.GetIntOr("queue-capacity", 4096));
  if (args.Has("mem-budget")) {
    RC_ASSIGN_OR_RETURN(std::string budget_text,
                        args.GetString("mem-budget"));
    RC_ASSIGN_OR_RETURN(std::int64_t budget, ParseByteSize(budget_text));
    builder.SetMemoryBudget(budget);
  }
  if (args.Has("spill-dir")) {
    builder.SetSpillDir(args.GetStringOr("spill-dir", ""));
  }
  if (args.Has("compact-threshold")) {
    builder.SetCompactThreshold(args.GetDoubleOr("compact-threshold", 1.0));
  }
  if (args.Has("compact-min-bytes")) {
    RC_ASSIGN_OR_RETURN(std::string min_text,
                        args.GetString("compact-min-bytes"));
    RC_ASSIGN_OR_RETURN(std::int64_t min_bytes, ParseByteSize(min_text));
    builder.SetCompactMinBytes(min_bytes);
  }
  // The injector must outlive the engine; it lives on this frame and the
  // engine holds a raw pointer.
  FaultInjector injector;
  if (args.Has("fail-io")) {
    RC_ASSIGN_OR_RETURN(std::string fail_spec, args.GetString("fail-io"));
    RC_RETURN_IF_ERROR(ArmFaultInjector(fail_spec, &injector));
    builder.SetFaultInjector(&injector);
  }
  if (backpressure == "drop-oldest") {
    builder.SetBackpressure(BackpressurePolicy::kDropOldest);
  } else if (backpressure == "reject") {
    builder.SetBackpressure(BackpressurePolicy::kReject);
  } else if (backpressure != "block") {
    return Status::InvalidArgument(StrPrintf(
        "unknown --backpressure \"%s\" (block|drop-oldest|reject)",
        backpressure.c_str()));
  }
  RC_ASSIGN_OR_RETURN(Engine engine, builder.Build());

  StreamGenerator gen(*spec);
  Stopwatch timer;
  IngestReport ingest = engine.IngestBatch(gen.GenerateStream());
  if (!ingest.ok()) {
    std::fprintf(stderr, "ingest failed after %lld/%lld tuples: %s\n",
                 static_cast<long long>(ingest.absorbed),
                 static_cast<long long>(ingest.attempted),
                 ingest.status.ToString().c_str());
    return ingest.status;
  }
  // SealThrough flushes the async queues first, so by the time the stats
  // print below the stream has fully landed (or been counted as dropped).
  RC_RETURN_IF_ERROR(engine.SealThrough(spec->series_length - 1));
  std::printf("ingested %lld ticks x %lld streams across %d shards in "
              "%.2f s (%s of tilt frames)\n",
              static_cast<long long>(spec->series_length),
              static_cast<long long>(engine.num_cells()), engine.num_shards(),
              timer.ElapsedSeconds(),
              FormatBytes(engine.MemoryBytes()).c_str());

  const int sealed_quarters =
      static_cast<int>(std::min<std::int64_t>(spec->series_length / 4, 16));
  const int window =
      static_cast<int>(args.GetIntOr("window", std::min(sealed_quarters, 8)));
  const std::size_t top = static_cast<std::size_t>(args.GetIntOr("top", 10));

  // Freeze a snapshot once; every drill below queries it lock-free, so a
  // live deployment could keep ingesting while this analysis runs.
  std::shared_ptr<const CubeSnapshot> snapshot = engine.TakeSnapshot();
  std::printf("\nsnapshot @ revision %llu: %lld cells frozen through tick "
              "%lld\n",
              static_cast<unsigned long long>(snapshot->revision()),
              static_cast<long long>(snapshot->num_cells()),
              static_cast<long long>(snapshot->now()));

  RC_ASSIGN_OR_RETURN(QueryResult changes,
                      snapshot->Query(QuerySpec::TrendChanges(0, threshold)));
  std::printf("\ntrend changes at the o-layer (last quarter vs previous): "
              "%zu\n", changes.trend_changes().size());
  for (size_t i = 0; i < changes.trend_changes().size() && i < 5; ++i) {
    const auto& change = changes.trend_changes()[i];
    std::printf("  %s: slope %+0.4f -> %+0.4f (delta %.4f)\n",
                change.key.ToString().c_str(), change.previous.slope,
                change.current.slope, change.slope_delta);
  }

  // Cube-side drilling goes through Engine::Query: it rides the engine's
  // maintained cube memo (incremental O(delta) maintenance between
  // writes), so the repeated drills below share one materialized cube and
  // its bytes show up under "cube.memo" in the report.
  std::printf("\ntop %zu exception cells over the last %d quarters:\n", top,
              window);
  RC_ASSIGN_OR_RETURN(
      QueryResult top_cells,
      engine.Query(QuerySpec::TopExceptions(top, 0, window)));
  for (const CellResult& cell : top_cells.cells()) {
    std::printf("  %s  [%s]\n", engine.RenderCell(cell).c_str(),
                engine.lattice().CuboidName(cell.cuboid).c_str());
    RC_ASSIGN_OR_RETURN(QueryResult supporters,
                        engine.Query(QuerySpec::Supporters(
                            cell.cuboid, cell.key, 0, window)));
    if (!supporters.cells().empty()) {
      std::printf("    %zu exceptional descendants, strongest: %s\n",
                  supporters.cells().size(),
                  engine.RenderCell(supporters.cells().front()).c_str());
    }
  }

  if (engine.IngestStats().mode == IngestMode::kAsync) {
    const IngestStats stats = engine.IngestStats();
    std::printf("\ningest queues (%s, capacity %lld/shard):\n",
                BackpressurePolicyName(stats.backpressure),
                static_cast<long long>(stats.queue_capacity));
    std::printf("  enqueued %lld  absorbed %lld  dropped %lld  rejected "
                "%lld\n",
                static_cast<long long>(stats.total.enqueued),
                static_cast<long long>(stats.total.absorbed),
                static_cast<long long>(stats.total.dropped),
                static_cast<long long>(stats.total.rejected));
    std::printf("  depth %lld  high-water %lld  blocked calls %lld  "
                "p99 enqueue %.1f us\n",
                static_cast<long long>(stats.total.depth),
                static_cast<long long>(stats.total.high_water),
                static_cast<long long>(stats.total.blocked),
                stats.total.p99_enqueue_us);
  }

  std::printf("\nretained memory (current / peak):\n");
  for (const auto& usage : engine.memory_tracker().SnapshotWithPeaks()) {
    std::printf("  %-24s %10s / %s\n", usage.name.c_str(),
                FormatBytes(usage.current).c_str(),
                FormatBytes(usage.peak).c_str());
  }

  // Whether cube-side queries rode the memo: a hit is served before any
  // gather, so under a budget it also skips fault-ins and enforcement.
  const IncrementalCubeCache::Stats memo = engine.cube_memo_stats();
  std::printf("\ncube memo: %lld hits, %lld revalidations, %lld patches, "
              "%lld rebuilds\n",
              static_cast<long long>(memo.hits),
              static_cast<long long>(memo.revalidations),
              static_cast<long long>(memo.patches),
              static_cast<long long>(memo.rebuilds));

  const SpillStats spill = engine.SpillStats();
  if (spill.budget_bytes > 0) {
    std::printf("\nmemory budget %s: %lld enforcements (memo %lld, caches "
                "%lld, spill %lld)\n",
                FormatBytes(spill.budget_bytes).c_str(),
                static_cast<long long>(spill.enforcements),
                static_cast<long long>(spill.memo_evictions),
                static_cast<long long>(spill.cache_evictions),
                static_cast<long long>(spill.spill_evictions));
    std::printf("  spilled %lld cells (%s on disk), faulted in %lld "
                "(%s, p99 %.1f us)\n",
                static_cast<long long>(spill.spilled_cells),
                FormatBytes(spill.disk_bytes).c_str(),
                static_cast<long long>(spill.fault_ins),
                FormatBytes(spill.fault_in_bytes).c_str(),
                spill.fault_in_p99_us);
    std::printf("  cold tier: %s live, %s garbage; %lld compactions "
                "reclaimed %s (%lld failed)\n",
                FormatBytes(spill.live_bytes).c_str(),
                FormatBytes(spill.garbage_bytes).c_str(),
                static_cast<long long>(spill.compactions),
                FormatBytes(spill.reclaimed_bytes).c_str(),
                static_cast<long long>(spill.compaction_failures));
    if (spill.io_errors > 0 || spill.retries > 0 ||
        spill.budget_rejects > 0) {
      std::printf("  degraded: %lld spill i/o errors (%lld retries), %lld "
                  "budget rejects\n",
                  static_cast<long long>(spill.io_errors),
                  static_cast<long long>(spill.retries),
                  static_cast<long long>(spill.budget_rejects));
    }
  }
  if (args.Has("fail-io")) {
    std::printf("\nfault injection: %lld injected failures (%s)\n",
                static_cast<long long>(injector.injected_failures()),
                args.GetStringOr("fail-io", "").c_str());
  }

  if (args.Has("checkpoint")) {
    RC_ASSIGN_OR_RETURN(std::string dir, args.GetString("checkpoint"));
    Stopwatch persist;
    // A fault-injected (or genuinely failing) disk makes Checkpoint fail
    // with a typed status. The stream run itself succeeded, so report the
    // degradation and finish normally instead of aborting the command —
    // exactly the behavior a deployment's checkpoint loop wants.
    const Status persisted = engine.Checkpoint(dir);
    if (!persisted.ok()) {
      std::printf("\ncheckpoint -> %s failed (typed, engine intact): %s\n",
                  dir.c_str(), persisted.ToString().c_str());
      return Status::OK();
    }
    std::printf("\ncheckpointed %lld cells -> %s in %.3f s\n",
                static_cast<long long>(engine.num_cells()), dir.c_str(),
                persist.ElapsedSeconds());

    // Warm restart drill: reopen from the files just written and serve a
    // query straight off the mapped frames — the restart-to-first-query
    // number a recovering deployment would see.
    Stopwatch restart;
    auto reopened = builder.OpenFrom(dir);
    if (!reopened.ok()) {
      std::printf("warm restart from %s failed (typed): %s\n", dir.c_str(),
                  reopened.status().ToString().c_str());
      return Status::OK();
    }
    RC_ASSIGN_OR_RETURN(
        QueryResult check,
        reopened->Query(QuerySpec::TopExceptions(top, 0, window)));
    std::printf("reopened %lld cells, first query (%zu cells) in %.3f s\n",
                static_cast<long long>(reopened->num_cells()),
                check.cells().size(), restart.ElapsedSeconds());
    if (reopened->num_cells() != engine.num_cells() ||
        check.cells().size() != top_cells.cells().size()) {
      return Status::Internal("warm restart disagreed with the live engine");
    }
  }
  return Status::OK();
}

Status RunSelfTest(const Args& args) {
  const std::string dir = args.GetStringOr("dir", "/tmp");
  const std::string tuples_path = dir + "/regcube_cli_selftest_tuples.bin";
  const std::string cube_path = dir + "/regcube_cli_selftest_cube.bin";

  // generate
  {
    WorkloadSpec spec;
    spec.num_dims = 2;
    spec.num_levels = 2;
    spec.fanout = 4;
    spec.num_tuples = 200;
    spec.series_length = 24;
    StreamGenerator gen(spec);
    RC_RETURN_IF_ERROR(
        WriteFile(tuples_path, EncodeMLayerTuples(gen.GenerateMLayerTuples())));
  }
  // cube (both algorithms agree on the o-layer)
  RC_ASSIGN_OR_RETURN(std::string data, ReadFile(tuples_path));
  RC_ASSIGN_OR_RETURN(std::vector<MLayerTuple> tuples,
                      DecodeMLayerTuples(data));
  WorkloadSpec spec;
  spec.num_dims = 2;
  spec.num_levels = 2;
  spec.fanout = 4;
  auto schema = MakeWorkloadSchemaPtr(spec);
  if (!schema.ok()) return schema.status();

  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(0.05);
  auto cube1 = ComputeMoCubing(*schema, tuples, mo);
  if (!cube1.ok()) return cube1.status();
  PopularPathOptions pp;
  pp.policy = ExceptionPolicy(0.05);
  auto cube2 = ComputePopularPathCubing(*schema, tuples, pp);
  if (!cube2.ok()) return cube2.status();
  if (cube1->o_layer().size() != cube2->o_layer().size()) {
    return Status::Internal("algorithms disagree on the o-layer");
  }
  RC_RETURN_IF_ERROR(WriteFile(cube_path, EncodeRegressionCube(*cube1)));

  // report (round trip)
  RC_ASSIGN_OR_RETURN(std::string cube_data, ReadFile(cube_path));
  RC_ASSIGN_OR_RETURN(RegressionCube restored,
                      DecodeRegressionCube(*schema, cube_data));
  if (restored.exceptions().total_cells() !=
      cube1->exceptions().total_cells()) {
    return Status::Internal("cube round trip lost exception cells");
  }
  std::remove(tuples_path.c_str());
  std::remove(cube_path.c_str());
  std::printf("selftest OK: %zu streams, %zu o-layer cells, %lld exception "
              "cells, round trip exact\n",
              tuples.size(), cube1->o_layer().size(),
              static_cast<long long>(cube1->exceptions().total_cells()));
  return Status::OK();
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: regcube_cli <command> [--flag value ...]\n"
      "commands:\n"
      "  generate --workload D3L3C10T10K --out tuples.bin [--seed N] "
      "[--ticks N]\n"
      "  cube     --workload NAME --in tuples.bin [--algorithm mo|pp]\n"
      "           [--rate R | --threshold X] [--out cube.bin]\n"
      "  report   --workload NAME --in cube.bin --threshold X [--top N]\n"
      "  stream   --workload NAME [--ticks N] [--shards N]\n"
      "           [--algorithm mo|pp] [--threshold X] [--window K] [--top N]\n"
      "           [--ingest sync|async] [--queue-capacity N]\n"
      "           [--backpressure block|drop-oldest|reject]\n"
      "           [--mem-budget BYTES[k|m|g]] [--spill-dir PATH]\n"
      "           [--compact-threshold R] [--compact-min-bytes BYTES[k|m|g]]\n"
      "           [--fail-io open|write|read|mmap|rename:N]\n"
      "           [--checkpoint PATH]\n"
      "  selftest [--dir PATH]\n");
}

int Main(int argc, char** argv) {
  auto args = Args::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  Status status;
  if (args->command() == "generate") {
    status = RunGenerate(*args);
  } else if (args->command() == "cube") {
    status = RunCube(*args);
  } else if (args->command() == "report") {
    status = RunReport(*args);
  } else if (args->command() == "stream") {
    status = RunStream(*args);
  } else if (args->command() == "selftest") {
    status = RunSelfTest(*args);
  } else {
    std::fprintf(stderr, "error: unknown command \"%s\"\n",
                 args->command().c_str());
    PrintUsage();
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace regcube

int main(int argc, char** argv) { return regcube::Main(argc, argv); }
