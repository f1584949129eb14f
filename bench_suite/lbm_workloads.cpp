// box_aa and times_square: closed loops of lattice steps timed from
// outside through lbm::Solver::run and core::ParallelLbm::run.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "city/city_model.hpp"
#include "city/voxelize.hpp"
#include "city/wind.hpp"
#include "core/border_exchange.hpp"
#include "core/parallel_lbm.hpp"
#include "io/bench_json.hpp"
#include "io/csv.hpp"
#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/solver.hpp"
#include "obs/export.hpp"
#include "probes.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace gc::bench {

// --- shared helpers ---------------------------------------------------------

Blocks time_blocks(double seconds, int min_blocks, obs::TraceRecorder* rec,
                   const std::function<void()>& block) {
  Blocks b;
  Timer total;
  while (b.count < min_blocks || total.seconds() < seconds) {
    const bool traced = rec && (b.count % 2 == 1);
    if (rec) rec->set_enabled(traced);
    Timer t;
    block();
    (traced ? b.traced_ms : b.plain_ms).push_back(t.millis());
    ++b.count;
  }
  if (rec) rec->set_enabled(false);
  return b;
}

void write_obs_trace(const Options& o, const obs::TraceRecorder& rec,
                     Report& rep) {
  const std::string path = o.trace_dir + "/" + o.workload + "_obs_trace.json";
  obs::write_chrome_trace(path, rec);
  io::write_csv(obs::csv_sibling_path(path), obs::trace_table(rec));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::size_t spans = obs::parse_chrome_trace(text.str()).spans.size();
  rep.gate(o.workload + ".obs_trace_parses", spans > 0,
           path + ": " + std::to_string(spans) + " spans");
}

void set_trace_overhead(Report& rep, const std::vector<double>& plain_ms,
                        const std::vector<double>& traced_ms) {
  const double plain = summarize(plain_ms).median;
  const double traced = summarize(traced_ms).median;
  if (plain > 0 && traced > 0) {
    rep.set("obs.trace_overhead_pct", 100.0 * (traced / plain - 1.0));
  }
}

void set_roofline(Report& rep) {
  ThreadPool pool(kThreads);
  const TriadResult t = triad_probe(pool);
  std::printf("triad: LLC %lld bytes, array %lld bytes (4x LLC = %lld)%s\n",
              static_cast<long long>(llc_bytes()),
              static_cast<long long>(t.array_bytes),
              static_cast<long long>(t.wanted_bytes),
              t.array_bytes < t.wanted_bytes ? ", capped" : "");
  rep.set("mem.triad_gbps", t.gbps);
  rep.set("lbm.pct_of_triad", 100.0 * rep.get("lbm.gbps_computed") / t.gbps);
}

namespace {

bool same_bits(Real a, Real b) {
  return std::bit_cast<u32>(a) == std::bit_cast<u32>(b);
}

/// First cell/direction where two lattices differ bit-wise, read through
/// Lattice::f; empty when identical.
std::string first_difference(const lbm::Lattice& a, const lbm::Lattice& b) {
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < a.num_cells(); ++c) {
      if (!same_bits(a.f(i, c), b.f(i, c))) {
        return "f" + std::to_string(i) + " differs at cell " +
               std::to_string(c);
      }
    }
  }
  return "";
}

/// Seeded equilibrium state: density within 0.5% of 1, each velocity
/// component within 0.02 of 0.
void seed_state(lbm::Lattice& lat, u64 seed) {
  Rng rng(seed);
  Real f[lbm::Q];
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Real rho = Real(1) + Real(0.01 * (rng.uniform() - 0.5));
    const Vec3 u{Real(0.02 * (2 * rng.uniform() - 1)),
                 Real(0.02 * (2 * rng.uniform() - 1)),
                 Real(0.02 * (2 * rng.uniform() - 1))};
    lbm::equilibrium_all(rho, u, f);
    lat.scatter_cell(c, f);
  }
}

i64 fluid_cells(const lbm::Lattice& lat) {
  return lat.num_cells() - lat.count(lbm::CellType::Solid);
}

double mflups(i64 cells, double step_ms) {
  return step_ms > 0 ? static_cast<double>(cells) / step_ms / 1e3 : 0.0;
}

/// lbm.* metrics shared by every lattice workload.
void set_lbm_metrics(Report& rep, const Blocks& b, int steps_per_block,
                     i64 cells, double bytes_per_step, double storage_bytes) {
  std::vector<double> step_ms;
  for (const double ms : b.plain_ms) step_ms.push_back(ms / steps_per_block);
  const Summary s = summarize(step_ms);
  rep.set_dist("op_ms", step_ms);
  rep.set("lbm.step_ms_p50", s.median);
  rep.set("lbm.step_ms_p90", s.p90);
  rep.set("lbm.mflups", mflups(cells, s.median));
  rep.set("lbm.bytes_per_step", bytes_per_step);
  rep.set("lbm.gbps_computed", bytes_per_step / (s.median * 1e-3) / 1e9);
  rep.set("lbm.storage_mb", storage_bytes / 1e6);
}

template <class SetUp>
void repeat_setup(Report& rep, SpanLog& log, SetUp&& set_up) {
  std::vector<double> setup_s;
  Timer total;
  while (another_setup(static_cast<int>(setup_s.size()), total.seconds())) {
    SpanLog::Scope span(log, "setup");
    Timer t;
    set_up();
    setup_s.push_back(t.seconds());
  }
  rep.set_dist("setup_s", setup_s);
}

}  // namespace

// --- box_aa -----------------------------------------------------------------

namespace {

/// A 32^3 pooled AA fused run against a serial double-buffered split run
/// of the same state. Fused steps are stream-then-collide, so the split
/// run takes one extra collide and the fused run one leading collide.
std::string aa_fused_vs_db_split(u64 seed, ThreadPool& pool) {
  const Int3 dim{32, 32, 32};
  const int steps = 6;
  const lbm::BgkParams bgk{Real(0.8), Vec3{}};

  lbm::SolverConfig split_cfg;
  lbm::Solver split(dim, split_cfg);
  seed_state(split.lattice(), seed);
  split.run(steps);
  lbm::collide_bgk(split.lattice(), bgk);

  lbm::SolverConfig fused_cfg;
  fused_cfg.storage = lbm::StorageMode::AA;
  fused_cfg.fused = true;
  fused_cfg.pool = &pool;
  lbm::Solver fused(dim, fused_cfg);
  seed_state(fused.lattice(), seed);
  lbm::collide_bgk(fused.lattice(), bgk, pool);
  fused.run(steps);
  return first_difference(split.lattice(), fused.lattice());
}

bool all_finite(const lbm::Lattice& lat) {
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      if (!std::isfinite(lat.f(i, c))) return false;
    }
  }
  return true;
}

}  // namespace

void run_box_aa(const Options& o, Report& rep, SpanLog& log) {
  // 64^3 is 20 MB in AA storage: each thread's z-slab (5 MB) is a few
  // times its private L2 and a small share of the shared LLC. A box in the
  // LLC's size range (128^3 is 167 MB) swung by 20% between runs with the
  // cache pressure of other tenants on the host. Smaller boxes spread more
  // too: ten runs of 40^3 spread by 8.3% (IQR/median), of 64^3 by 6.3%.
  const int n = o.quick ? 24 : 64;
  const Int3 dim{n, n, n};
  const int warmup = 5, steps_per_block = 4, min_blocks = 6;
  ThreadPool pool(kThreads);
  obs::TraceRecorder rec;
  rec.set_enabled(false);

  lbm::SolverConfig cfg;
  cfg.storage = lbm::StorageMode::AA;
  cfg.fused = true;
  cfg.pool = &pool;
  if (o.traced) cfg.trace = &rec;

  std::unique_ptr<lbm::Solver> solver;
  repeat_setup(rep, log, [&] {
    solver.reset();
    solver = std::make_unique<lbm::Solver>(dim, cfg);
    seed_state(solver->lattice(), o.seed);
    SpanLog::Scope span(log, "lbm::Solver::run");
    solver->run(warmup);
  });
  const double mass0 = lbm::total_mass(solver->lattice());

  const Blocks b = time_blocks(o.seconds, min_blocks, o.traced ? &rec : nullptr,
                               [&] {
                                 SpanLog::Scope span(log, "lbm::Solver::run");
                                 solver->run(steps_per_block);
                               });
  rep.attempted = b.count * steps_per_block;
  rep.set("peak_rss_mb", peak_rss_mb());

  const lbm::Lattice& lat = solver->lattice();
  set_lbm_metrics(rep, b, steps_per_block, lat.num_cells(),
                  io::fused_step_traffic_bytes(lat),
                  static_cast<double>(lat.storage_bytes()));

  // Single-precision rounding drifts the total by 1e-8 to 3e-8 per step,
  // so the bound is per 100 steps; a kernel that leaks mass misses it by
  // orders of magnitude.
  const double drift = std::abs(lbm::total_mass(lat) - mass0) / mass0 /
                       static_cast<double>(rep.attempted) * 100.0;
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "relative mass drift %.3g per 100 steps", drift);
  rep.gate("box_aa.mass_conserved", drift <= 1e-5, detail);
  rep.gate("box_aa.finite", all_finite(lat), "every f finite");
  const std::string diff = aa_fused_vs_db_split(o.seed, pool);
  rep.gate("box_aa.aa_fused_equals_db_split", diff.empty(),
           diff.empty() ? "32^3, 6 steps, bit-exact" : diff);

  if (!o.traced) return;
  for (const obs::PhaseTotal& p : rec.phase_totals()) {
    if (p.name == "fused" && p.count > 0) {
      rep.set("lbm.fused_ms", p.total_ms / static_cast<double>(p.count));
    }
  }
  set_trace_overhead(rep, b.plain_ms, b.traced_ms);
  write_obs_trace(o, rec, rep);
  solver.reset();

  // Single-threaded baseline of the same problem.
  lbm::SolverConfig serial_cfg = cfg;
  serial_cfg.pool = nullptr;
  serial_cfg.trace = nullptr;
  lbm::Solver serial(dim, serial_cfg);
  seed_state(serial.lattice(), o.seed);
  serial.run(2);
  const Blocks sb = time_blocks(std::min(3.0, o.seconds / 4), 3, nullptr, [&] {
    SpanLog::Scope span(log, "lbm::Solver::run");
    serial.run(1);
  });
  const double serial_mflups =
      mflups(serial.lattice().num_cells(), summarize(sb.plain_ms).median);
  rep.set("lbm.serial_mflups", serial_mflups);
  rep.set("lbm.pool_speedup", rep.get("lbm.mflups") / serial_mflups);
  set_roofline(rep);
}

// --- times_square -----------------------------------------------------------

double fluid_imbalance(const core::ParallelLbm& sim) {
  const int n = sim.decomposition().num_nodes();
  std::vector<double> cells;
  for (int node = 0; node < n; ++node) {
    const core::LocalDomain ld =
        core::LocalDomain::make(sim.decomposition(), node);
    const lbm::Lattice& lat = sim.local(node);
    i64 fluid = 0;
    for (int z = ld.own_lo().z; z < ld.own_hi().z; ++z) {
      for (int y = ld.own_lo().y; y < ld.own_hi().y; ++y) {
        for (int x = ld.own_lo().x; x < ld.own_hi().x; ++x) {
          fluid += lat.flag(lat.idx(x, y, z)) != lbm::CellType::Solid;
        }
      }
    }
    cells.push_back(static_cast<double>(fluid));
  }
  double sum = 0, mx = 0;
  for (const double c : cells) {
    sum += c;
    mx = std::max(mx, c);
  }
  return mx / (sum / static_cast<double>(n));
}

void set_core_phase_metrics(Report& rep, const obs::TraceRecorder& rec,
                            int ranks, i64 steps, double wall_ms_per_step) {
  if (steps <= 0) return;
  struct Phase {
    const char* span;
    const char* metric;
  };
  const Phase phases[] = {
      {"collide", "core.collide_ms"},      {"overlap.pack", "core.pack_ms"},
      {"overlap.inner", "core.inner_ms"},  {"overlap.wait", "core.wait_ms"},
      {"overlap.unpack", "core.unpack_ms"}, {"overlap.outer", "core.outer_ms"},
  };
  std::vector<double> busy(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> wait(static_cast<std::size_t>(ranks), 0.0);
  std::map<std::string, double> total;
  for (const obs::TraceEvent& e : rec.events()) {
    if (e.rank < 0 || e.rank >= ranks) continue;
    for (const Phase& p : phases) {
      if (e.name != p.span) continue;
      total[p.span] += e.duration_ms();
      busy[static_cast<std::size_t>(e.rank)] += e.duration_ms();
      if (e.name == "overlap.wait") {
        wait[static_cast<std::size_t>(e.rank)] += e.duration_ms();
      }
    }
  }
  const double per = 1.0 / (static_cast<double>(steps) * ranks);
  for (const Phase& p : phases) rep.set(p.metric, total[p.span] * per);
  const double steps_d = static_cast<double>(steps);
  rep.set("core.wait_ms_max",
          *std::max_element(wait.begin(), wait.end()) / steps_d);
  rep.set("core.unaccounted_ms",
          wall_ms_per_step -
              *std::max_element(busy.begin(), busy.end()) / steps_d);
}

namespace {

/// The first owned fluid cell (read through Lattice::f on each rank's
/// lattice) that is not finite, has rho outside [0.5, 1.5] or |u| >= 0.3;
/// empty when every cell is physical.
std::string first_unphysical(const core::ParallelLbm& sim) {
  const int n = sim.decomposition().num_nodes();
  std::vector<std::string> bad(static_cast<std::size_t>(n));
  ThreadPool pool(kThreads);
  pool.parallel_for(0, n, [&](i64 node) {
    const core::LocalDomain ld =
        core::LocalDomain::make(sim.decomposition(), static_cast<int>(node));
    const lbm::Lattice& lat = sim.local(static_cast<int>(node));
    for (int z = ld.own_lo().z; z < ld.own_hi().z; ++z) {
      for (int y = ld.own_lo().y; y < ld.own_hi().y; ++y) {
        for (int x = ld.own_lo().x; x < ld.own_hi().x; ++x) {
          const i64 c = lat.idx(x, y, z);
          if (lat.flag(c) == lbm::CellType::Solid) continue;
          double rho = 0, ux = 0, uy = 0, uz = 0;
          for (int i = 0; i < lbm::Q; ++i) {
            const double f = lat.f(i, c);
            rho += f;
            ux += f * lbm::C[i].x;
            uy += f * lbm::C[i].y;
            uz += f * lbm::C[i].z;
          }
          const double u = std::sqrt(ux * ux + uy * uy + uz * uz) / rho;
          if (!std::isfinite(rho) || !std::isfinite(u) || rho < 0.5 ||
              rho > 1.5 || u >= 0.3) {
            bad[static_cast<std::size_t>(node)] =
                "rank " + std::to_string(node) + " cell (" +
                std::to_string(x) + "," + std::to_string(y) + "," +
                std::to_string(z) + "): rho " + std::to_string(rho) +
                ", |u| " + std::to_string(u);
            return;
          }
        }
      }
    }
  });
  for (const std::string& s : bad) {
    if (!s.empty()) return s;
  }
  return "";
}

/// The paper's scene on the ranks of `cfg`, ready to run.
struct Scene {
  std::unique_ptr<core::ParallelLbm> sim;
  i64 fluid = 0;
  double voxelize_s = 0, ctor_s = 0;
};

/// The default CityParams (fixed seed, so --seed does not change it) with
/// a northeasterly wind, on cells `k` times the paper's 3.8 m: 480x400x80
/// / k cells. The global lattice is built in the run's storage mode, so it
/// holds one distribution buffer, and is freed once the ranks have their
/// parts.
Scene build_times_square(int k, const core::ParallelConfig& cfg,
                         SpanLog& log) {
  city::VoxelizeParams voxel;
  voxel.meters_per_cell *= Real(k);
  voxel.origin_cells = Int3{voxel.origin_cells.x / k,
                            voxel.origin_cells.y / k, 0};
  const city::WindScenario wind = city::WindScenario::northeasterly(Real(0.08));
  lbm::Lattice lat(Int3{480 / k, 400 / k, 80 / k}, cfg.storage);
  city::apply_wind_boundaries(lat, wind);
  lat.init_equilibrium(Real(1), wind.velocity);
  Scene s;
  {
    SpanLog::Scope span(log, "city::voxelize");
    Timer t;
    city::voxelize(city::CityModel(city::CityParams{}), lat, voxel);
    s.voxelize_s = t.seconds();
  }
  s.fluid = fluid_cells(lat);
  SpanLog::Scope span(log, "core::ParallelLbm::ParallelLbm");
  Timer t;
  s.sim = std::make_unique<core::ParallelLbm>(lat, cfg);
  s.ctor_s = t.seconds();
  return s;
}

}  // namespace

void run_times_square(const Options& o, Report& rep, SpanLog& log) {
  // The timed scene has cells 4x the paper's (120x100x20 at 15.2 m), so
  // the ranks' working set, 18 MB, is a few times their private L2s rather
  // than many times the shared LLC. At the paper's 3.8 m (2.6 GB resident)
  // the step time followed other tenants' memory traffic on a shared host:
  // ten-run sets spread by 11 to 40% and their medians doubled within an
  // hour. The paper-scale step is a per-layer metric of the traced run.
  const int k = o.quick ? 8 : 4;
  const int paper_k = o.quick ? 4 : 1;
  // AA alternates an even and an odd step kernel of different cost, so a
  // sample is one step pair: single-step samples are bimodal, and their
  // median jumps between the two modes from run to run.
  const int warmup = 1, steps_per_block = 2, min_blocks = 4;

  obs::TraceRecorder rec;
  rec.set_enabled(false);
  core::ParallelConfig cfg;
  cfg.storage = lbm::StorageMode::AA;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  cfg.fluid_balanced = true;
  cfg.overlap = true;
  if (o.traced) cfg.trace = &rec;

  std::unique_ptr<core::ParallelLbm> sim;
  std::vector<double> voxelize_s, ctor_s;
  i64 fluid = 0;
  repeat_setup(rep, log, [&] {
    sim.reset();
    Scene s = build_times_square(k, cfg, log);
    voxelize_s.push_back(s.voxelize_s);
    ctor_s.push_back(s.ctor_s);
    fluid = s.fluid;
    sim = std::move(s.sim);
    SpanLog::Scope span(log, "core::ParallelLbm::run");
    sim->run(warmup);
  });
  rep.set("city.voxelize_s", summarize(voxelize_s).median);
  rep.set("core.ctor_s", summarize(ctor_s).median);

  const int ranks = sim->decomposition().num_nodes();
  std::vector<netsim::RankTraffic> traffic0;
  std::vector<double> hidden0;
  for (int r = 0; r < ranks; ++r) {
    traffic0.push_back(sim->world().rank_traffic(r));
    hidden0.push_back(sim->overlap_hidden_ms(r));
  }
  const Blocks b = time_blocks(o.seconds, min_blocks,
                               o.traced ? &rec : nullptr, [&] {
                                 SpanLog::Scope span(log,
                                                     "core::ParallelLbm::run");
                                 sim->run(steps_per_block);
                               });
  rep.attempted = b.count * steps_per_block;
  rep.set("peak_rss_mb", peak_rss_mb());

  double bytes = 0, storage = 0, messages = 0, payload = 0, hidden = 0;
  for (int r = 0; r < ranks; ++r) {
    bytes += io::split_step_traffic_bytes(sim->local(r));
    storage += static_cast<double>(sim->local(r).storage_bytes());
    const netsim::RankTraffic t = sim->world().rank_traffic(r);
    messages += static_cast<double>(t.messages - traffic0[r].messages);
    payload +=
        static_cast<double>(t.payload_values - traffic0[r].payload_values);
    hidden += sim->overlap_hidden_ms(r) - hidden0[r];
  }
  set_lbm_metrics(rep, b, steps_per_block, fluid, bytes, storage);
  const double steps = static_cast<double>(rep.attempted);
  rep.set("netsim.messages_per_step", messages / steps);
  rep.set("netsim.bytes_per_step", payload * sizeof(Real) / steps);
  rep.set("core.hidden_ms", hidden / ranks / steps);
  rep.set("core.imbalance", fluid_imbalance(*sim));

  const std::string bad = first_unphysical(*sim);
  rep.gate("times_square.physical", bad.empty(),
           bad.empty() ? "rho in [0.5, 1.5], |u| < 0.3, finite" : bad);

  if (!o.traced) return;
  double traced_ms = 0;
  for (const double ms : b.traced_ms) traced_ms += ms;
  const i64 traced_steps =
      static_cast<i64>(b.traced_ms.size()) * steps_per_block;
  set_core_phase_metrics(rep, rec, ranks, traced_steps,
                         traced_ms / static_cast<double>(traced_steps));
  set_trace_overhead(rep, b.plain_ms, b.traced_ms);
  write_obs_trace(o, rec, rep);
  sim.reset();

  // The paper's resolution, set up once and timed for a third of the run:
  // the number the paper's 0.31 s/step compares with.
  core::ParallelConfig paper_cfg = cfg;
  paper_cfg.trace = nullptr;
  Scene paper = build_times_square(paper_k, paper_cfg, log);
  const auto paper_block = [&] {
    SpanLog::Scope span(log, "core::ParallelLbm::run");
    paper.sim->run(steps_per_block);
  };
  paper_block();
  const Blocks pb = time_blocks(o.seconds / 3, 2, nullptr, paper_block);
  rep.set("core.paper_step_ms",
          summarize(pb.plain_ms).median / steps_per_block);
  paper.sim.reset();
  set_roofline(rep);
}

}  // namespace gc::bench
