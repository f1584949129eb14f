// scenario_mix: the scenario service under a seeded traffic mix. Phase A
// is an open loop (Poisson arrivals through try_submit, 90% hot flow
// keys, 10% fresh cold keys), so cache hits and misses contend for the
// same two workers; its latency over both is the gated op_ms. Phase B,
// in traced runs only, is a closed loop of two clients sending hot keys,
// which measures how many hits the service completes per second.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "city/voxelize.hpp"
#include "core/parallel_lbm.hpp"
#include "io/bench_json.hpp"
#include "io/checkpoint.hpp"
#include "probes.hpp"
#include "service/scenario_service.hpp"
#include "tracer/tracer.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace gc::bench {

namespace {

namespace fs = std::filesystem;

// The key mix (4 hot keys, 90% of requests on them, the rest on fresh
// keys) is an arbitrary stress point that makes both hits and misses
// frequent, not a model of real traffic. The arrival rate is a fixed
// share of the capacity this mix has: on a 4-vCPU Xeon (KVM guest), a hit
// held a worker for about kHitServiceMs and a miss for about
// kMissServiceMs, so two workers serve about 15 requests/s. The loop
// offers a quarter of that. At half, a shared host that slowed the
// misses 1.8x pushed the service past saturation: queues grew through the
// run and the median latency of ten runs spread from 83 ms to 1.5 s.
constexpr int kHotKeys = 4;
constexpr double kHotShare = 0.9;
constexpr int kWorkers = 2;
constexpr double kHitServiceMs = 60;
constexpr double kMissServiceMs = 750;
constexpr double kUtilization = 0.25;
constexpr double kArrivalsPerS =
    kUtilization * kWorkers * 1e3 /
    (kHotShare * kHitServiceMs + (1 - kHotShare) * kMissServiceMs);
constexpr int kClients = 2;
/// A generator that falls further behind its schedule than this no
/// longer measures the load it claims to.
constexpr double kMaxLagMs = 50;

service::ScenarioRequest base_request(bool quick) {
  service::ScenarioRequest req;
  req.dim = quick ? Int3{48, 32, 12} : Int3{96, 64, 24};
  req.city.extent_x_m = Real(300);
  req.city.extent_y_m = Real(200);
  req.city.avenues = 4;
  req.city.streets = 5;
  req.voxel.meters_per_cell = quick ? Real(8) : Real(4);
  req.voxel.origin_cells = quick ? Int3{5, 4, 0} : Int3{10, 8, 0};
  req.wind.velocity = Vec3{Real(0.05), Real(0), Real(0)};
  req.spin_up_steps = quick ? 10 : 60;
  req.tracer_steps = quick ? 20 : 100;
  req.releases.push_back(service::Release{Int3{}, quick ? 200 : 2000});
  return req;
}

service::ServiceConfig service_config(const std::string& cache_dir,
                                      i64 entry_bytes,
                                      obs::TraceRecorder* rec) {
  service::ServiceConfig cfg;
  cfg.cache_dir = cache_dir;
  cfg.cache_max_bytes = 8 * entry_bytes + entry_bytes / 2;  // ~8 entries
  cfg.queue_capacity = 64;
  cfg.workers = kWorkers;
  cfg.partitions = 2;
  cfg.partition.grid = netsim::NodeGrid{Int3{2, 1, 1}};
  cfg.partition.overlap = true;
  cfg.trace = rec;
  cfg.partition.trace = rec;
  return cfg;
}

/// Seeded inputs: release sites on fluid cells near the ground, tracer
/// seeds, and cold winds no hot key uses.
class RequestGen {
 public:
  RequestGen(const service::ScenarioRequest& base, u64 seed)
      : base_(base), rng_(seed) {
    const lbm::Lattice lat = service::build_scenario_lattice(base);
    const int z = std::min(2, base.dim.z - 1);
    for (int y = 1; y < base.dim.y - 1; ++y) {
      for (int x = 1; x < base.dim.x - 1; ++x) {
        if (lat.flag(Int3{x, y, z}) == lbm::CellType::Fluid) {
          sites_.push_back(Int3{x, y, z});
        }
      }
    }
    GC_CHECK_MSG(!sites_.empty(), "scenario lattice has no fluid release site");
  }

  service::ScenarioRequest hot(int key) {
    service::ScenarioRequest req = with_release();
    req.wind.velocity.x = Real(0.05) + Real(0.01) * Real(key);
    return req;
  }
  service::ScenarioRequest cold() {
    service::ScenarioRequest req = with_release();
    req.wind.velocity.x = Real(0.02 + 0.06 * rng_.uniform());
    return req;
  }
  service::ScenarioRequest any() {
    if (rng_.uniform() < kHotShare) {
      return hot(static_cast<int>(rng_.uniform_int(0, kHotKeys - 1)));
    }
    return cold();
  }
  Rng& rng() { return rng_; }

 private:
  service::ScenarioRequest with_release() {
    service::ScenarioRequest req = base_;
    req.releases[0].site = sites_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<i64>(sites_.size()) - 1))];
    req.tracer_seed = rng_.next_u64();
    return req;
  }
  service::ScenarioRequest base_;
  Rng rng_;
  std::vector<Int3> sites_;
};

/// One completed scenario as the benchmark saw it.
struct Done {
  double latency_ms;
  service::ScenarioResult result;
};

/// Everything the run keeps for metrics and gates.
struct Tally {
  std::vector<Done> done;  ///< concentration fields dropped, see keep()
  i64 conservation_failures = 0;
  i64 errors = 0;
  bool have_hot = false, have_cold = false;
  service::ScenarioRequest hot_req, cold_req;
  service::ScenarioResult hot_res, cold_res;

  /// Checks particle conservation, keeps the first hit and first miss
  /// whole (for the replay gate) and the rest without their fields.
  void keep(const service::ScenarioRequest& req, service::ScenarioResult r,
            double latency_ms) {
    if (r.particles_released != r.particles_alive + r.particles_escaped) {
      ++conservation_failures;
    }
    if (r.cache_hit && !have_hot) {
      have_hot = true;
      hot_req = req;
      hot_res = r;
    } else if (!r.cache_hit && !have_cold) {
      have_cold = true;
      cold_req = req;
      cold_res = r;
    }
    r.concentration.clear();
    r.concentration.shrink_to_fit();
    done.push_back(Done{latency_ms, std::move(r)});
  }
};

struct OpenLoopStats {
  i64 sent = 0, refused = 0;
  double lag_ms_max = 0;
};

/// Phase A: Poisson arrivals, each timed from its due time to the moment
/// the generator saw its future ready (polled at least every millisecond).
OpenLoopStats open_loop(service::ScenarioService& svc, RequestGen& gen,
                        double seconds, SpanLog& log, Tally& tally) {
  struct Arrival {
    double due_ms;
    service::ScenarioRequest req;
  };
  std::vector<Arrival> arrivals;
  for (double t = 0;;) {
    t += -std::log(1.0 - gen.rng().uniform()) / kArrivalsPerS * 1e3;
    if (t >= seconds * 1e3) break;
    arrivals.push_back(Arrival{t, gen.any()});
  }
  struct Pending {
    i64 id;
    double due_ms;
    service::ScenarioRequest req;
    std::future<service::ScenarioResult> fut;
  };
  std::vector<Pending> pending;
  OpenLoopStats st;
  Timer clock;
  const double t0_us = log.now_us();
  std::size_t next = 0;
  while (next < arrivals.size() || !pending.empty()) {
    const double now = clock.millis();
    if (next < arrivals.size() && arrivals[next].due_ms <= now) {
      Arrival& a = arrivals[next];
      const i64 id = static_cast<i64>(++next);
      st.lag_ms_max = std::max(st.lag_ms_max, now - a.due_ms);
      ++st.sent;
      service::ScenarioRequest copy = a.req;
      std::future<service::ScenarioResult> fut;
      bool accepted = false;
      {
        SpanLog::Scope span(log, "service::ScenarioService::try_submit", id);
        accepted = svc.try_submit(std::move(copy), &fut);
      }
      if (accepted) {
        pending.push_back(
            Pending{id, a.due_ms, std::move(a.req), std::move(fut)});
      } else {
        ++st.refused;
      }
      continue;
    }
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const double done_ms = clock.millis();
      log.record("scenario.request", t0_us + it->due_ms * 1e3,
                 t0_us + done_ms * 1e3, 0, it->id);
      try {
        tally.keep(it->req, it->fut.get(), done_ms - it->due_ms);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "scenario_mix: request %lld failed: %s\n",
                     static_cast<long long>(it->id), e.what());
        ++tally.errors;
      }
      it = pending.erase(it);
    }
    double wake = clock.millis() + 1.0;
    if (next < arrivals.size()) wake = std::min(wake, arrivals[next].due_ms);
    const double sleep_ms = wake - clock.millis();
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
  }
  return st;
}

/// Phase B: `kClients` closed-loop clients sending hot keys until
/// `seconds` pass. Returns per-request latencies; counts failures and
/// the wall time until the last request finished.
std::vector<double> closed_loop(service::ScenarioService& svc, u64 seed,
                                const service::ScenarioRequest& base,
                                double seconds, SpanLog& log, Tally& tally,
                                i64* submitted, double* elapsed_s) {
  struct Client {
    std::vector<double> latency_ms;
    std::vector<std::pair<service::ScenarioRequest, service::ScenarioResult>>
        results;
    i64 errors = 0;
  };
  std::vector<Client> clients(kClients);
  std::vector<RequestGen> gens;
  for (int c = 0; c < kClients; ++c) {
    gens.emplace_back(base, seed * 31 + static_cast<u64>(c) + 1);
  }
  std::vector<std::thread> threads;
  Timer clock;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[static_cast<std::size_t>(c)];
      RequestGen& gen = gens[static_cast<std::size_t>(c)];
      int key = c;
      while (clock.seconds() < seconds) {
        service::ScenarioRequest req = gen.hot(key);
        key = (key + 1) % kHotKeys;
        Timer t;
        try {
          SpanLog::Scope span(log, "service::ScenarioService::submit");
          service::ScenarioResult r = svc.submit(req).get();
          me.latency_ms.push_back(t.millis());
          me.results.emplace_back(std::move(req), std::move(r));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "scenario_mix: client %d: %s\n", c, e.what());
          ++me.errors;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *elapsed_s = clock.seconds();
  std::vector<double> latency;
  for (Client& cl : clients) {
    *submitted += static_cast<i64>(cl.latency_ms.size()) + cl.errors;
    tally.errors += cl.errors;
    for (std::size_t k = 0; k < cl.results.size(); ++k) {
      tally.keep(cl.results[k].first, std::move(cl.results[k].second),
                 cl.latency_ms[k]);
    }
    latency.insert(latency.end(), cl.latency_ms.begin(), cl.latency_ms.end());
  }
  return latency;
}

bool same_field(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Replays the kept hit and miss on a fresh cache: both now compute their
/// flow cold, and must reproduce the recorded concentration bit-exactly.
std::string replay_on_fresh_cache(const Tally& tally, const std::string& dir,
                                  i64 entry_bytes, SpanLog& log) {
  fs::remove_all(dir);
  std::string problem;
  {
    service::ScenarioService svc(service_config(dir, entry_bytes, nullptr));
    const std::pair<const service::ScenarioRequest*,
                    const service::ScenarioResult*>
        cases[] = {{&tally.hot_req, &tally.hot_res},
                   {&tally.cold_req, &tally.cold_res}};
    for (const auto& [req, want] : cases) {
      SpanLog::Scope span(log, "service::ScenarioService::submit");
      const service::ScenarioResult got = svc.submit(*req).get();
      if (!same_field(got.concentration, want->concentration) ||
          got.particles_escaped != want->particles_escaped) {
        problem = std::string(req == &tally.hot_req ? "hot" : "cold") +
                  " request differs on a fresh cache";
      }
    }
  }
  fs::remove_all(dir);
  return problem;
}

std::vector<double> pick(const std::vector<Done>& done, bool hit,
                         double (*field)(const Done&)) {
  std::vector<double> out;
  for (const Done& d : done) {
    if (d.result.cache_hit == hit) out.push_back(field(d));
  }
  return out;
}

}  // namespace

void run_scenario_mix(const Options& o, Report& rep, SpanLog& log) {
  const service::ScenarioRequest base = base_request(o.quick);
  const std::string cache_dir = o.work_dir + "/scenario_cache";
  const std::string replay_dir = o.work_dir + "/scenario_replay";
  const std::string probe_path = o.work_dir + "/scenario_probe.gclb";
  fs::create_directories(o.work_dir);

  // Size the cache budget from one real entry's checkpoint.
  lbm::Lattice probe_lat = service::build_scenario_lattice(base);
  io::save_checkpoint(probe_path, probe_lat);
  const i64 entry_bytes = static_cast<i64>(fs::file_size(probe_path));

  RequestGen gen(base, o.seed);
  Tally tally;
  std::unique_ptr<obs::TraceRecorder> rec;
  std::unique_ptr<service::ScenarioService> svc;
  std::vector<double> setup_s;
  for (Timer total;
       another_setup(static_cast<int>(setup_s.size()), total.seconds());) {
    svc.reset();
    fs::remove_all(cache_dir);
    tally = Tally{};
    SpanLog::Scope span(log, "setup");
    Timer t;
    if (o.traced) rec = std::make_unique<obs::TraceRecorder>();
    svc = std::make_unique<service::ScenarioService>(
        service_config(cache_dir, entry_bytes, rec.get()));
    std::vector<std::pair<service::ScenarioRequest,
                          std::future<service::ScenarioResult>>>
        warm;
    for (int key = 0; key < kHotKeys; ++key) {
      service::ScenarioRequest req = gen.hot(key);
      std::future<service::ScenarioResult> fut = svc->submit(req);
      warm.emplace_back(std::move(req), std::move(fut));
    }
    for (auto& [req, fut] : warm) {
      Timer w;
      service::ScenarioResult r = fut.get();
      tally.keep(req, std::move(r), w.millis());
    }
    setup_s.push_back(t.seconds());
  }
  rep.set_dist("setup_s", setup_s);
  const std::size_t warm_results = tally.done.size();

  // Phase B feeds per-layer metrics only, so the untraced run gives phase
  // A the whole timed phase.
  const double a_seconds = o.traced ? 0.75 * o.seconds : o.seconds;
  const double b_seconds = o.seconds - a_seconds;
  const OpenLoopStats gen_st = open_loop(*svc, gen, a_seconds, log, tally);
  const std::vector<Done> phase_a(tally.done.begin() +
                                      static_cast<std::ptrdiff_t>(warm_results),
                                  tally.done.end());
  const auto latency = [](const Done& d) { return d.latency_ms; };
  std::vector<double> a_latency;
  for (const Done& d : phase_a) a_latency.push_back(latency(d));
  rep.set_dist("op_ms", a_latency);
  rep.set("peak_rss_mb", peak_rss_mb());

  // Phase B: the first half with the recorder off and the second with it
  // on, so the two halves give the tracing overhead.
  i64 b_submitted = 0;
  double plain_s = 0, traced_s = 0;
  std::vector<double> b_plain, b_traced;
  if (o.traced) {
    rec->set_enabled(false);
    b_plain = closed_loop(*svc, o.seed, base, b_seconds / 2, log, tally,
                          &b_submitted, &plain_s);
    rec->set_enabled(true);
    b_traced = closed_loop(*svc, o.seed + 7, base, b_seconds / 2, log, tally,
                           &b_submitted, &traced_s);
    rep.set("service.hit_capacity_per_s",
            static_cast<double>(b_plain.size()) / plain_s);
  }

  rep.attempted = gen_st.sent + b_submitted;
  rep.failed = gen_st.refused + tally.errors;
  rep.set("gen.lag_ms_max", gen_st.lag_ms_max);
  rep.set("gen.sent", static_cast<double>(gen_st.sent));
  rep.set("gen.refused", static_cast<double>(gen_st.refused));

  const auto flow = [](const Done& d) { return d.result.flow_ms; };
  const Summary hits = summarize(pick(phase_a, true, latency));
  rep.set("service.hit_latency_p50_ms", hits.median);
  rep.set("service.hit_latency_p95_ms", hits.p95);
  rep.set("service.miss_latency_p50_ms",
          summarize(pick(phase_a, false, latency)).median);
  rep.set("cache.restore_ms_p50", summarize(pick(phase_a, true, flow)).median);
  rep.set("cache.miss_flow_ms_p50",
          summarize(pick(phase_a, false, flow)).median);
  std::vector<double> pre_flow, tracer_ms;
  for (const Done& d : phase_a) {
    pre_flow.push_back(d.latency_ms - d.result.flow_ms - d.result.tracer_ms);
  }
  for (const Done& d : tally.done) tracer_ms.push_back(d.result.tracer_ms);
  rep.set("service.pre_flow_ms_p50", summarize(pre_flow).median);
  rep.set("tracer.ms_p50", summarize(tracer_ms).median);
  if (!phase_a.empty()) {
    rep.set("service.hit_ratio",
            static_cast<double>(pick(phase_a, true, latency).size()) /
                static_cast<double>(phase_a.size()));
  }

  // The LBM seen through the misses: every compute's spin-up stats.
  std::vector<double> step_ms, run_ms;
  for (const Done& d : tally.done) {
    if (d.result.cache_hit || d.result.flow_stats.steps == 0) continue;
    run_ms.push_back(d.result.flow_stats.wall_ms);
    step_ms.push_back(d.result.flow_stats.wall_ms /
                      static_cast<double>(d.result.flow_stats.steps));
  }
  const Summary step = summarize(step_ms);
  const i64 fluid =
      probe_lat.num_cells() - probe_lat.count(lbm::CellType::Solid);
  const double bytes = io::split_step_traffic_bytes(probe_lat);
  rep.set("core.lease_run_ms_p50", summarize(run_ms).median);
  rep.set("lbm.step_ms_p50", step.median);
  rep.set("lbm.step_ms_p90", step.p90);
  if (step.median > 0) {
    rep.set("lbm.mflups", static_cast<double>(fluid) / step.median / 1e3);
    rep.set("lbm.gbps_computed", bytes / (step.median * 1e-3) / 1e9);
  }
  rep.set("lbm.bytes_per_step", bytes);
  rep.set("lbm.storage_mb",
          static_cast<double>(probe_lat.storage_bytes()) / 1e6);

  const service::FlowCache::Stats cs = svc->cache().stats();
  rep.set("cache.computes", static_cast<double>(cs.computes));
  rep.set("cache.evictions", static_cast<double>(cs.evictions));
  rep.set("cache.mb", static_cast<double>(svc->cache().bytes()) / 1e6);

  rep.gate("scenario_mix.no_failures", rep.failed == 0,
           std::to_string(rep.failed) + " refused or failed of " +
               std::to_string(rep.attempted));
  char lag[96];
  std::snprintf(lag, sizeof(lag), "largest lag %.2f ms, at most %.0f ms",
                gen_st.lag_ms_max, kMaxLagMs);
  rep.gate("scenario_mix.generator_on_schedule",
           gen_st.lag_ms_max <= kMaxLagMs, lag);
  rep.gate("scenario_mix.particles_conserved", tally.conservation_failures == 0,
           std::to_string(tally.done.size()) +
               " results, released == alive + escaped");
  if (!tally.have_hot || !tally.have_cold) {
    rep.gate("scenario_mix.replay_bit_exact", false,
             "the run produced no hit or no miss to replay");
  } else {
    const std::string problem =
        replay_on_fresh_cache(tally, replay_dir, entry_bytes, log);
    rep.gate("scenario_mix.replay_bit_exact", problem.empty(),
             problem.empty() ? "one hit and one miss, bit-exact concentration"
                             : problem);
  }

  if (o.traced) {
    // Rank phases and traffic of every spin-up the final service ran.
    const i64 steps = cs.computes * base.spin_up_steps;
    double wall = 0;
    for (const double ms : run_ms) wall += ms;
    const int ranks = 2;
    set_core_phase_metrics(rep, *rec, ranks, steps,
                           run_ms.empty() ? 0 : wall / static_cast<double>(
                               run_ms.size() * base.spin_up_steps));
    if (steps > 0) {
      rep.set("netsim.messages_per_step",
              static_cast<double>(rec->counter("mpi.messages")) / steps);
      rep.set("netsim.bytes_per_step",
              static_cast<double>(rec->counter("mpi.bytes")) / steps);
    }
    double hidden = 0;
    for (const obs::GaugeSample& g : rec->gauges()) {
      if (g.name == "mpi.overlap_hidden_ms") hidden += g.value;
    }
    rep.set("core.hidden_ms", hidden / ranks / base.spin_up_steps);
    set_trace_overhead(rep, b_plain, b_traced);
    write_obs_trace(o, *rec, rep);

    // Replay the layers a hit and a miss pass through, one call at a time.
    std::vector<double> build_ms, load_ms, save_ms, voxelize_s;
    const lbm::Lattice geometry =
        service::build_scenario_lattice(tally.hot_req);
    const std::string entry = svc->cache().checkpoint_path(
        service::scenario_flow_key(tally.hot_req, geometry));
    lbm::Lattice flow = io::load_checkpoint(entry);
    for (int k = 0; k < 5; ++k) {
      Timer t;
      {
        SpanLog::Scope span(log, "service::build_scenario_lattice");
        service::build_scenario_lattice(base);
      }
      build_ms.push_back(t.millis());
      lbm::Lattice lat(base.dim);
      t.reset();
      {
        SpanLog::Scope span(log, "city::voxelize");
        city::voxelize(city::CityModel(base.city), lat, base.voxel);
      }
      voxelize_s.push_back(t.seconds());
      t.reset();
      {
        SpanLog::Scope span(log, "io::load_checkpoint");
        flow = io::load_checkpoint(entry);
      }
      load_ms.push_back(t.millis());
      t.reset();
      {
        SpanLog::Scope span(log, "io::save_checkpoint");
        io::save_checkpoint(probe_path, flow);
      }
      save_ms.push_back(t.millis());
    }
    rep.set("city.build_ms", summarize(build_ms).median);
    rep.set("city.voxelize_s", summarize(voxelize_s).median);
    rep.set("io.checkpoint_load_ms", summarize(load_ms).median);
    rep.set("io.checkpoint_save_ms", summarize(save_ms).median);
    rep.set("io.checkpoint_mb",
            static_cast<double>(fs::file_size(probe_path)) / 1e6);

    tracer::TracerParams tp;
    tp.seed = tally.hot_req.tracer_seed;
    tracer::TracerCloud cloud(tp);
    cloud.release(tally.hot_req.releases[0].site,
                  tally.hot_req.releases[0].count);
    Timer t;
    {
      SpanLog::Scope span(log, "tracer::TracerCloud::step");
      for (int s = 0; s < base.tracer_steps; ++s) cloud.step(flow);
    }
    rep.set("tracer.ns_per_particle_step",
            t.millis() * 1e6 /
                (static_cast<double>(tally.hot_req.releases[0].count) *
                 base.tracer_steps));

    // The partition a lease builds: same grid, uniform cut planes.
    core::ParallelConfig pc;
    pc.grid = netsim::NodeGrid{Int3{2, 1, 1}};
    pc.overlap = true;
    t.reset();
    std::unique_ptr<core::ParallelLbm> part;
    {
      SpanLog::Scope span(log, "core::ParallelLbm::ParallelLbm");
      part = std::make_unique<core::ParallelLbm>(geometry, pc);
    }
    rep.set("core.ctor_s", t.seconds());
    rep.set("core.imbalance", fluid_imbalance(*part));
    part.reset();
    set_roofline(rep);
  }
  svc.reset();
  fs::remove_all(cache_dir);
  fs::remove(probe_path);
}

}  // namespace gc::bench
