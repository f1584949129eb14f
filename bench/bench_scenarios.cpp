// Many-query dispersion throughput: what the flow-field cache buys.
//
// The paper's Section 5 protocol spins the city flow up for 1000 steps
// before releasing tracers; an emergency-response ensemble re-asks the
// same flow hundreds of times with different release points. This bench
// measures three things on one scenario geometry:
//
//   cold      — first query: LBM spin-up on a cluster partition, cache
//               commit, tracer phase.
//   cached    — the same query again: checkpoint restore + tracer only.
//               The headline number is cached speedup vs cold (target
//               >10x: the spin-up dominates end-to-end latency).
//   ensemble  — a batch of queries (several release points per wind)
//               through the service, reported as scenarios/hour.
//
// With --fault-rate R > 0 a fourth phase sweeps {0, R/4, R/2, R} message
// fault rates across the pool (drop + corrupt, seeded per partition) and
// reports the throughput degradation curve: how gracefully scenarios/hour
// decays as the network gets sicker while every result stays bit-exact
// (recovery + retries absorb the faults).
//
//   ./bench_scenarios [--spin-up N] [--queries N] [--winds N]
//                     [--fault-rate R]  (--help for all)
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "netsim/fault.hpp"
#include "service/scenario_service.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gc;
  ArgParser args("bench_scenarios",
                 "cold vs cached scenario latency and ensemble throughput");
  args.add_int("spin-up", 300, "LBM steps to steady state per flow");
  args.add_int("tracer-steps", 100, "dispersion steps per query");
  args.add_int("particles", 4000, "tracer particles per release");
  args.add_int("queries", 12, "ensemble size for the throughput phase");
  args.add_int("winds", 2, "distinct winds (= LBM spin-ups) in the ensemble");
  args.add_int("workers", 2, "service worker threads");
  args.add_int("partitions", 2, "cluster partitions in the pool");
  args.add_string("cache", "", "cache dir, wiped at start (default: temp dir)");
  args.add_real("fault-rate", 0,
                "top message drop+corrupt rate for the degradation sweep "
                "(0 skips the sweep)");
  if (!args.parse(argc, argv)) return 1;

  std::string cache_dir = args.get_string("cache");
  if (cache_dir.empty()) {
    cache_dir = (std::filesystem::temp_directory_path() / "bench_scenarios")
                    .string();
  }
  // The cold phase asserts a miss, so the bench always starts cold.
  std::filesystem::remove_all(cache_dir);

  service::ServiceConfig cfg;
  cfg.cache_dir = cache_dir;
  cfg.workers = static_cast<int>(args.get_int("workers"));
  cfg.partitions = static_cast<int>(args.get_int("partitions"));
  cfg.partition.grid = netsim::NodeGrid::arrange_2d(4);

  service::ScenarioRequest base;
  base.dim = Int3{96, 64, 24};
  base.city.extent_x_m = Real(300);
  base.city.extent_y_m = Real(200);
  base.city.avenues = 4;
  base.city.streets = 5;
  base.voxel.meters_per_cell = Real(4);
  base.voxel.origin_cells = Int3{10, 8, 0};
  base.wind.velocity = Vec3{Real(0.05), Real(0), Real(0)};
  base.spin_up_steps = static_cast<int>(args.get_int("spin-up"));
  base.tracer_steps = static_cast<int>(args.get_int("tracer-steps"));
  base.releases.push_back(
      service::Release{Int3{20, 30, 2},
                       static_cast<int>(args.get_int("particles"))});

  // --- cold vs cached latency (one service, one key) ---
  double cold_ms = 0, cached_ms = 0;
  {
    service::ScenarioService svc(cfg);
    Timer t;
    const service::ScenarioResult cold = svc.submit(base).get();
    cold_ms = t.millis();
    GC_CHECK_MSG(!cold.cache_hit, "cold query must miss a fresh cache");

    t.reset();
    const service::ScenarioResult warm = svc.submit(base).get();
    cached_ms = t.millis();
    GC_CHECK_MSG(warm.cache_hit, "second identical query must hit");
  }
  const double speedup = cold_ms / cached_ms;
  std::printf("cold   %9.1f ms  (spin-up %d steps on %dx%dx%d)\n", cold_ms,
              base.spin_up_steps, base.dim.x, base.dim.y, base.dim.z);
  std::printf("cached %9.1f ms  -> %.1fx speedup vs cold\n", cached_ms,
              speedup);

  // --- ensemble throughput (fresh cache, several winds) ---
  std::filesystem::remove_all(cache_dir);
  const int queries = static_cast<int>(args.get_int("queries"));
  const int winds = static_cast<int>(args.get_int("winds"));
  double ensemble_s = 0;
  i64 hits = 0, computes = 0;
  {
    service::ScenarioService svc(cfg);
    Timer t;
    std::vector<std::future<service::ScenarioResult>> futs;
    for (int q = 0; q < queries; ++q) {
      service::ScenarioRequest req = base;
      req.wind.velocity.x = Real(0.05) + Real(0.01) * Real(q % winds);
      req.tracer_seed = static_cast<u64>(1000 + q);
      req.releases[0].site = Int3{12 + 6 * (q % 8), 10 + 5 * (q % 6), 2};
      futs.push_back(svc.submit(std::move(req)));
    }
    for (std::future<service::ScenarioResult>& f : futs) f.get();
    ensemble_s = t.seconds();
    hits = svc.cache().stats().hits;
    computes = svc.cache().stats().computes;
  }
  const double per_hour = queries * 3600.0 / ensemble_s;
  std::printf(
      "ensemble: %d queries / %d wind(s) in %.2f s -> %.0f scenarios/hour "
      "(%lld spin-ups, %lld hits)\n",
      queries, winds, ensemble_s, per_hour, static_cast<long long>(computes),
      static_cast<long long>(hits));

  // --- fault-rate degradation curve (fresh cache per point) ---
  const double top_rate = args.get_real("fault-rate");
  if (top_rate > 0) {
    std::printf("degradation sweep (drop+corrupt, %d queries per point):\n",
                queries);
    for (const double frac : {0.0, 0.25, 0.5, 1.0}) {
      const double rate = top_rate * frac;
      std::filesystem::remove_all(cache_dir);

      // One seeded FaultSpec per partition; faulted slots run under the
      // recovery driver with test-grade retransmit timeouts.
      std::vector<std::unique_ptr<netsim::FaultSpec>> specs;
      service::ServiceConfig fcfg = cfg;
      if (rate > 0) {
        for (int p = 0; p < fcfg.partitions; ++p) {
          auto spec = std::make_unique<netsim::FaultSpec>(
              static_cast<u64>(1000 + p));
          spec->rates.drop = rate;
          spec->rates.corrupt = rate;
          fcfg.partition_faults.push_back(spec.get());
          specs.push_back(std::move(spec));
        }
        fcfg.partition.reliability.recv_timeout_ms = 25;
        fcfg.partition.reliability.max_retries = 6;
        fcfg.partition.checkpoint_every = 50;
        fcfg.partition.max_rollbacks = 16;
        fcfg.retry.max_attempts = 4;
      }

      double total_s = 0;
      i64 retries = 0, rollbacks = 0;
      {
        obs::TraceRecorder rec;
        fcfg.trace = &rec;
        fcfg.partition.trace = &rec;
        service::ScenarioService svc(fcfg);
        Timer t;
        std::vector<std::future<service::ScenarioResult>> futs;
        for (int q = 0; q < queries; ++q) {
          service::ScenarioRequest req = base;
          req.wind.velocity.x = Real(0.05) + Real(0.01) * Real(q % winds);
          req.tracer_seed = static_cast<u64>(1000 + q);
          req.releases[0].site = Int3{12 + 6 * (q % 8), 10 + 5 * (q % 6), 2};
          futs.push_back(svc.submit(std::move(req)));
        }
        for (std::future<service::ScenarioResult>& f : futs) f.get();
        total_s = t.seconds();
        retries = rec.counter("service.retries");
        rollbacks = rec.counter("ft.rollbacks");
      }
      i64 injected = 0;
      for (const std::unique_ptr<netsim::FaultSpec>& s : specs) {
        const netsim::FaultCounters c = s->counters();
        injected += c.drops + c.duplicates + c.delays + c.corruptions;
      }
      const double rate_per_hour = queries * 3600.0 / total_s;
      std::printf(
          "  rate %.4f: %.2f s -> %8.0f scenarios/hour  (%lld faults, "
          "%lld retries, %lld rollbacks)\n",
          rate, total_s, rate_per_hour, static_cast<long long>(injected),
          static_cast<long long>(retries), static_cast<long long>(rollbacks));
    }
  }

  std::filesystem::remove_all(cache_dir);
  return 0;
}
