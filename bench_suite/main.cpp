// bench_suite: one workload of the repeatable benchmark per process.
//
//   bench_suite --workload box_aa --seed 1 [--seconds 30] [--trace DIR]
//               [--out results.json] [--work DIR] [--quick]
//
// Prints every metric as `workload metric value unit`, then the gate
// verdicts, then one JSON line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace the per-layer
// metrics. Exits 1 when a correctness gate fails. See README.md.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "probes.hpp"
#include "report.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace gc;
  using namespace gc::bench;
  ArgParser args("bench_suite", "repeatable benchmark: one workload per run");
  args.add_string("workload", "",
                  "box_aa | times_square | scenario_mix");
  args.add_int("seed", 1, "input seed (same seed, same inputs)");
  args.add_real("seconds", 30, "length of the timed phase");
  args.add_string("trace", "",
                  "traced run: write traces to this directory and report "
                  "the per-layer metrics");
  args.add_string("out", "", "write the results file (metadata, every "
                             "metric with its distribution, gates) here");
  args.add_string("work", ".bench_build/work", "scratch directory");
  args.add_flag("quick", "shrink every input so a run takes seconds");
  if (!args.parse(argc, argv)) return 2;

  Options o;
  o.workload = args.get_string("workload");
  o.seed = static_cast<u64>(args.get_int("seed"));
  o.seconds = args.get_real("seconds");
  o.trace_dir = args.get_string("trace");
  o.traced = !o.trace_dir.empty();
  o.work_dir = args.get_string("work") + "/" + o.workload;
  o.quick = args.get_flag("quick");

  const std::map<std::string, void (*)(const Options&, Report&, SpanLog&)>
      workloads = {{"box_aa", &run_box_aa},
                   {"times_square", &run_times_square},
                   {"scenario_mix", &run_scenario_mix}};
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "bench_suite: unknown workload '%s'\n%s",
                 o.workload.c_str(), args.help().c_str());
    return 2;
  }
  if (nproc() < kThreads) {
    std::fprintf(stderr,
                 "bench_suite: warning: %d CPUs online, the workloads run "
                 "%d threads\n",
                 nproc(), kThreads);
  }
  if (o.traced) std::filesystem::create_directories(o.trace_dir);

  SpanLog log(o.traced);
  Report rep(o.workload);
  std::string result;
  try {
    it->second(o, rep, log);
    result = rep.result_line(o.traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  rep.print_lines();

  const std::map<std::string, std::string> meta = {
      {"git_sha", GC_BENCH_GIT_SHA},
      {"build_type", GC_BENCH_BUILD_TYPE},
      {"cxx_flags", GC_BENCH_CXX_FLAGS},
      {"compiler", GC_BENCH_COMPILER},
      {"nproc", std::to_string(nproc())},
      {"llc_bytes", std::to_string(llc_bytes())},
      {"threads", std::to_string(kThreads)},
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"seconds", std::to_string(o.seconds)},
      {"mode", o.traced ? "traced" : "untraced"},
      {"quick", o.quick ? "true" : "false"},
  };
  const std::string out = args.get_string("out");
  if (!out.empty()) {
    std::ofstream f(out, std::ios::trunc);
    f << rep.results_json(meta);
    if (!f.good()) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n", out.c_str());
      return 1;
    }
  }
  if (o.traced) {
    log.write_chrome_trace(o.trace_dir + "/" + o.workload +
                           "_bench_spans.json");
  }
  std::printf("%s\n", result.c_str());
  return rep.correct() ? 0 : 1;
}
