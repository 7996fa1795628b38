// Flood benchmark: one workload per run, end-to-end metrics (--trace 0) or
// per-layer metrics from a traced run (--trace 1). Driven by
// perfbench/run.py, which builds this binary and turns its "@result" line
// into the benchmark's result object; see perfbench/WORKLOADS.md.
//
//   flood_perfbench --workload serve_point --seed 3 --seconds 12 --trace 0
//       [--scale 1.0] [--tail-limit-us N] [--work-dir DIR]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Die;
using perfbench::Report;

perfbench::RunOptions ParseArgs(int argc, char** argv) {
  perfbench::RunOptions o;
  o.work_dir = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--scale") {
      o.scale = std::atof(value.c_str());
    } else if (flag == "--tail-limit-us") {
      o.tail_limit_us = std::atof(value.c_str());
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) Die("--workload is required");
  if (!(o.seconds > 0) || !(o.scale > 0)) Die("--seconds/--scale must be > 0");
  if (o.workload != "analytics_large" && !(o.tail_limit_us > 0)) {
    Die("--tail-limit-us is required for serve_point");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts = ParseArgs(argc, argv);
  opts.host = perfbench::DetectHost();
  // One scratch directory per process: sockets, WAL and snapshots.
  opts.work_dir += "/" + opts.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  if (ec) Die("cannot create " + opts.work_dir + ": " + ec.message());
  opts.trace_path = opts.work_dir + ".spans.jsonl";

  perfbench::PrintContext(opts.host);
  Report::Note("run workload=" + opts.workload +
               perfbench::Fmt(" seed=%.0f seconds=%.2f trace=%.0f scale=%.4f",
                              static_cast<double>(opts.seed), opts.seconds,
                              opts.trace ? 1 : 0, opts.scale) +
               perfbench::Fmt(" tail_limit_us=%.0f", opts.tail_limit_us));
  perfbench::WorkloadData data = perfbench::MakeWorkloadData(opts);

  Report report;
  const bool ok = opts.trace ? perfbench::RunTraced(&data, opts, &report)
                             : perfbench::RunEndToEnd(&data, opts, &report);
  std::filesystem::remove_all(opts.work_dir, ec);

  Report::Note(perfbench::Fmt(
      "error_rate %.6f (failed %.0f of %.0f attempted; %.0f wrong answers)",
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 0.0,
      static_cast<double>(report.failed),
      static_cast<double>(report.attempted),
      static_cast<double>(report.wrong)));
  if (!report.valid) {
    std::fprintf(stderr, "perfbench: run invalid: %s\n",
                 report.invalid_reason.c_str());
    return 3;
  }
  std::printf("%s\n", report.ResultLine(ok && report.wrong == 0).c_str());
  return ok && report.wrong == 0 ? 0 : 1;
}
