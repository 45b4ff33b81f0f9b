// regcube benchmark: runs one workload and prints its metrics.
//
//   perfbench --workload stream|drill|cold --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Runs one workload against the public regcube/api facade, checks every
// answer against an oracle, prints a human-readable report (lines starting
// with '#') and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every engine call and the metrics are the
// per-layer ones (the end-to-end figures of the traced run are printed as
// a '# e2e-json' line so the tracing overhead can be computed).

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workload.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload stream|drill|cold "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("#   %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Options options;
  options.nproc = CpuCount();
  options.work_dir = ".bench_build/work-" + std::to_string(getpid());
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have_seconds = *end == '\0' && options.seconds >= 1;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return Usage("--workload, --seed and --seconds are required");
  }
  bool (*run)(const Options&, Tracer&, RunReport*) = nullptr;
  if (options.workload == "stream") run = RunStream;
  if (options.workload == "drill") run = RunDrill;
  if (options.workload == "cold") run = RunCold;
  if (run == nullptr) return Usage("unknown workload");

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());

  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Tracer tracer(options.trace);
  RunReport report;
  const bool ran = run(options, tracer, &report);
  std::filesystem::remove_all(options.work_dir, ec);
  if (!ran) {
    std::fprintf(stderr, "perfbench: workload %s could not be set up\n",
                 options.workload.c_str());
    return 1;
  }

  std::printf("# config:");
  for (const auto& [key, value] : report.config) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n# operations (attempted/failed):");
  for (int i = 0; i < kNumOps; ++i) {
    std::printf(" %s=%lld/%lld", OpName(static_cast<Op>(i)),
                static_cast<long long>(report.ops.attempted[i]),
                static_cast<long long>(report.ops.failed[i]));
  }
  const std::int64_t attempted = report.ops.TotalAttempted();
  const std::int64_t failed = report.ops.TotalFailed();
  std::printf("\n# error_rate %.6g (%lld of %lld operations failed)\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  for (const std::string& failure : report.ops.first_failures) {
    std::printf("# failure: %s\n", failure.c_str());
  }
  PrintMetrics(options.trace ? "end-to-end (traced run)" : "end-to-end",
               report.end_to_end);
  PrintMetrics("wall clock, before speed correction", report.wall);
  if (options.trace) {
    PrintMetrics("per-layer", report.per_layer);
    std::printf("# not driven on this workload (reported as 0):");
    for (const std::string& name : report.not_driven) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    PrintSelfTimes(tracer);
    const std::string spans =
        (std::filesystem::path(options.work_dir).parent_path() /
         ("spans-" + options.workload + "-seed" +
          std::to_string(options.seed) + ".tsv"))
            .string();
    if (tracer.WriteTsv(spans)) std::printf("# spans written to %s\n",
                                            spans.c_str());
    std::printf("# e2e-json %s\n", MetricsJson(report.end_to_end).c_str());
  }
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              MetricsJson(options.trace ? report.per_layer
                                        : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
