// The cluster as a dispersion appliance (Section 6's outlook): an
// ensemble of emergency-response queries — "release at X under wind W,
// where does the plume go?" — submitted to the ScenarioService instead
// of hand-writing one driver per run. The first query per wind pays the
// LBM spin-up on a leased cluster partition; every further query with
// the same geometry and wind restores the cached steady flow and runs
// only the Lowe-Succi tracer phase, which is why the ensemble finishes
// in a fraction of the cold-start cost.
//
// With --faults SEED the pool's partitions run under a seeded
// adversarial network (message drop/corruption at --drop/--corrupt, an
// optional rank-1 crash at --crash-step): the reliable envelope layer,
// checkpoint/rollback recovery, and service-level retries absorb the
// faults, every result stays bit-exact, and the run ends with a
// resilience summary (retries, quarantines, expired deadlines).
//
//   ./scenario_server [--queries N] [--winds N] [--spin-up N]
//                     [--tracer-steps N] [--cache DIR] [--out DIR]
//                     [--trace FILE.json]
//                     [--faults SEED] [--drop R] [--corrupt R]
//                     [--crash-step N] [--deadline-ms MS] [--retries N]
//                     (--help for all)
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "io/csv.hpp"
#include "io/vtk_writer.hpp"
#include "netsim/fault.hpp"
#include "obs/export.hpp"
#include "service/scenario_service.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gc;
  ArgParser args("scenario_server",
                 "ensemble dispersion queries over a shared flow cache");
  args.add_int("queries", 12, "total scenario queries to submit");
  args.add_int("winds", 2, "distinct wind speeds across the ensemble");
  args.add_int("spin-up", 150, "LBM steps to steady state per flow");
  args.add_int("tracer-steps", 200, "dispersion steps per query");
  args.add_int("particles", 5000, "tracer particles per release");
  args.add_int("workers", 2, "service worker threads");
  args.add_int("partitions", 2, "cluster partitions in the pool");
  args.add_string("cache", "scenario_cache", "flow-cache directory");
  args.add_string("out", ".", "output directory for the plume VTK");
  args.add_string("trace", "",
                  "write a Chrome-trace JSON (+ CSV sibling) of the run");
  args.add_int("faults", 0,
               "fault-injection seed; nonzero arms a per-partition fault "
               "matrix (seeds SEED, SEED+1, ...)");
  args.add_real("drop", 0.01, "message drop rate under --faults");
  args.add_real("corrupt", 0.01, "message corruption rate under --faults");
  args.add_int("crash-step", 0,
               "crash rank 1 of partition 0 once at this step (0 = never; "
               "needs --faults)");
  args.add_int("deadline-ms", 0, "per-request deadline (0 = none)");
  args.add_int("retries", 3, "scenario attempts before giving up");
  if (!args.parse(argc, argv)) return 1;

  const int queries = static_cast<int>(args.get_int("queries"));
  const int winds = static_cast<int>(args.get_int("winds"));
  const std::string trace_path = args.get_string("trace");
  const std::string out_dir = args.get_string("out");
  std::filesystem::create_directories(out_dir);
  const long fault_seed = args.get_int("faults");
  obs::TraceRecorder recorder;

  service::ServiceConfig cfg;
  cfg.cache_dir = args.get_string("cache");
  cfg.workers = static_cast<int>(args.get_int("workers"));
  cfg.partitions = static_cast<int>(args.get_int("partitions"));
  cfg.partition.grid = netsim::NodeGrid::arrange_2d(4);
  cfg.trace = (trace_path.empty() && fault_seed == 0) ? nullptr : &recorder;
  cfg.retry.max_attempts = static_cast<int>(args.get_int("retries"));

  // FaultSpecs are non-copyable and must outlive the service; one seeded
  // spec per partition so the schedules stay independent.
  std::vector<std::unique_ptr<netsim::FaultSpec>> fault_specs;
  if (fault_seed != 0) {
    for (int p = 0; p < cfg.partitions; ++p) {
      auto spec = std::make_unique<netsim::FaultSpec>(
          static_cast<u64>(fault_seed + p));
      spec->rates.drop = args.get_real("drop");
      spec->rates.corrupt = args.get_real("corrupt");
      const long crash_step = args.get_int("crash-step");
      if (p == 0 && crash_step > 0) {
        spec->crashes.push_back(
            netsim::CrashFault{1, static_cast<int>(crash_step)});
      }
      cfg.partition_faults.push_back(spec.get());
      fault_specs.push_back(std::move(spec));
    }
    cfg.partition.reliability.recv_timeout_ms = 50;
    cfg.partition.reliability.max_retries = 6;
    cfg.partition.checkpoint_every = 25;
    cfg.partition.max_rollbacks = 8;
    cfg.partition.trace = &recorder;
    std::printf("Fault injection armed: seed %ld, drop %.3f, corrupt %.3f\n",
                fault_seed, args.get_real("drop"), args.get_real("corrupt"));
  }
  service::ScenarioService svc(cfg);

  // The query template: a small procedural district under an eastward
  // wind. Each query varies the release site; every `winds`-th query
  // also varies the wind speed, forcing a fresh flow field.
  service::ScenarioRequest base;
  base.dim = Int3{96, 64, 24};
  base.city.extent_x_m = Real(300);
  base.city.extent_y_m = Real(200);
  base.city.avenues = 4;
  base.city.streets = 5;
  base.voxel.meters_per_cell = Real(4);
  base.voxel.origin_cells = Int3{10, 8, 0};
  base.spin_up_steps = static_cast<int>(args.get_int("spin-up"));
  base.tracer_steps = static_cast<int>(args.get_int("tracer-steps"));
  base.deadline_ms = static_cast<double>(args.get_int("deadline-ms"));

  std::printf("Submitting %d queries across %d wind(s), cache at %s\n",
              queries, winds, cfg.cache_dir.c_str());
  Timer wall;
  std::vector<std::future<service::ScenarioResult>> futs;
  for (int q = 0; q < queries; ++q) {
    service::ScenarioRequest req = base;
    req.wind.velocity =
        Vec3{Real(0.05) + Real(0.01) * Real(q % winds), Real(0), Real(0)};
    req.tracer_seed = static_cast<u64>(100 + q);
    const Int3 site{10 + 6 * (q % 8), 12 + 4 * (q % 5), 2};
    req.releases.push_back(
        service::Release{site, static_cast<int>(args.get_int("particles"))});
    futs.push_back(svc.submit(std::move(req)));
  }

  std::vector<service::ScenarioResult> results;
  int failed = 0;
  for (int q = 0; q < queries; ++q) {
    try {
      results.push_back(futs[static_cast<std::size_t>(q)].get());
    } catch (const service::ServiceError& e) {
      ++failed;
      std::printf("  query %2d: FAILED (%s)\n", q, e.what());
      continue;
    }
    const service::ScenarioResult& r = results.back();
    std::printf(
        "  query %2d: %s  flow %7.1f ms  tracer %6.1f ms  escaped %lld/%lld\n",
        q, r.cache_hit ? "cache-hit " : "flow+cache", r.flow_ms, r.tracer_ms,
        static_cast<long long>(r.particles_escaped),
        static_cast<long long>(r.particles_released));
  }
  const double total_s = wall.seconds();

  const service::FlowCache::Stats cs = svc.cache().stats();
  std::printf(
      "Ensemble: %d queries in %.2f s (%.0f scenarios/hour); cache %lld "
      "hit / %lld miss, %lld LBM spin-up(s)\n",
      queries, total_s, queries * 3600.0 / total_s,
      static_cast<long long>(cs.hits), static_cast<long long>(cs.misses),
      static_cast<long long>(cs.computes));

  if (fault_seed != 0) {
    i64 injected = 0;
    for (const std::unique_ptr<netsim::FaultSpec>& s : fault_specs) {
      const netsim::FaultCounters fc = s->counters();
      injected += fc.drops + fc.duplicates + fc.delays + fc.corruptions +
                  fc.crashes;
    }
    std::printf(
        "Resilience: %lld faults injected; %lld rollbacks, %lld retries, "
        "%lld quarantined, %lld deadline-expired; %d/%d queries failed\n",
        static_cast<long long>(injected),
        static_cast<long long>(recorder.counter("ft.rollbacks")),
        static_cast<long long>(recorder.counter("service.retries")),
        static_cast<long long>(recorder.counter("service.quarantined")),
        static_cast<long long>(recorder.counter("service.deadline_expired")),
        failed, queries);
  }

  // Persist the last plume for inspection (Figure 12-style volume).
  if (!results.empty() && !results.back().concentration.empty()) {
    const std::string vtk = out_dir + "/scenario_plume.vtk";
    io::write_vtk_scalar(vtk, base.dim, results.back().concentration,
                         "contaminant");
    std::printf("Wrote %s\n", vtk.c_str());
  }

  if (!trace_path.empty()) {
    obs::write_chrome_trace(trace_path, recorder);
    const std::string csv_path = obs::csv_sibling_path(trace_path);
    io::write_csv(csv_path, obs::trace_table(recorder));
    std::printf("wrote %s and %s\n", trace_path.c_str(), csv_path.c_str());
  }
  return 0;
}
