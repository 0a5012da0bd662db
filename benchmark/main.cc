// kbench: the repository benchmark.
//
//   kbench --workload serve|cold_start|stream|train --seed N --seconds S
//          --trace 0|1 [--work_dir DIR]
//
// Generates the workload's inputs from the seed, sets the system up several
// times, measures for S seconds, checks every output against its correctness
// gates, and prints two lines: a detail object (phases, failure accounting,
// generator lateness, provenance) and, last, the result object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) as
// name: value; run.py checks the names against BENCHMARK.json and attaches
// the units. Exit code 0 = correct; 1 = a correctness gate failed; 2 = bad
// command line or self-test failure. A run whose load generator fell behind
// its schedule, or that ran on a contended host, is marked invalid in the
// detail line.
// benchmark/README.md describes the workloads and metrics.

#include <cstdio>
#include <map>
#include <string>

#include "common.h"
#include "stats.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  kbench::Args args;
  if (!kbench::ParseArgs(argc, argv, &args)) return 2;
  const std::string self_test = kbench::SelfTest();
  if (!self_test.empty()) {
    std::fprintf(stderr, "quantile self-test failed: %s\n", self_test.c_str());
    return 2;
  }
  const std::map<std::string, void (*)(kbench::Run&)> workloads = {
      {"serve", kbench::RunServe},
      {"cold_start", kbench::RunColdStart},
      {"stream", kbench::RunStream},
      {"train", kbench::RunTrain},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  kucnet::SetGlobalPoolThreads(kbench::kPoolWorkers);
  kbench::Run run(args);
  run.Gate("quantile_self_test", true);
  it->second(run);
  return run.Finish();
}
