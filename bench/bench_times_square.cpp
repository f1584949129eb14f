// Reproduces the Section 5 headline: the Times Square dispersion run —
// a 480x400x80 D3Q19 lattice on 30 GPU nodes at 0.31 s/step, 1000 steps
// of flow spin-up in under 20 minutes, then tracer dispersion. The
// timing comes from the calibrated cluster model; the *functional* urban
// simulation also runs here at reduced scale (the same code path the
// examples drive at full quality).
#include <cstdio>

#include "city/city_model.hpp"
#include "gpulbm/boundary_rects.hpp"
#include "city/voxelize.hpp"
#include "city/wind.hpp"
#include "core/cluster_sim.hpp"
#include "io/csv.hpp"
#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"
#include "obs/export.hpp"
#include "tracer/tracer.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gc;
  ArgParser args("bench_times_square",
                 "Times Square headline numbers + functional urban run.");
  args.add_string("trace", "",
                  "write a Chrome-trace JSON (+ CSV sibling) of the "
                  "functional urban run to this path");
  if (!args.parse(argc, argv)) return 1;
  const std::string trace_path = args.get_string("trace");
  obs::TraceRecorder recorder;
  obs::TraceRecorder* rec = trace_path.empty() ? nullptr : &recorder;

  // --- Timing model at paper scale -------------------------------------
  core::ClusterSimulator sim;
  core::ClusterScenario sc;
  sc.lattice = Int3{480, 400, 80};
  sc.grid = netsim::NodeGrid::arrange_2d(30);
  const core::StepBreakdown b = sim.simulate_step(sc);

  Table t("Section 5 — Times Square run, 480x400x80 on 30 nodes");
  t.set_header({"quantity", "model", "paper"});
  t.row().cell("grid arrangement").cell("6x5").cell("2D, 30 nodes");
  t.row().cell("sub-domain").cell("80x80x80").cell("80^3");
  t.row().cell("s/step").cell(b.gpu_total_ms / 1000.0, 3).cell(0.31, 2);
  t.row()
      .cell("1000-step spin-up (min)")
      .cell(b.gpu_total_ms * 1000 / 1000.0 / 60.0, 1)
      .cell("< 20");
  t.print();

  // The Section 1 comparison against Brown et al.'s HIGRAD: Salt Lake
  // City at 10 m spacing (160x150x36) took "a few hours on a
  // supercomputer or cluster"; the GPU cluster resolves Times Square at
  // 3.8 m (480x400x80, 55x the cells per meter^3) in under 20 minutes.
  Table h("Section 1 — urban CFD comparison (HIGRAD vs GPU cluster)");
  h.set_header({"system", "area", "grid", "spacing", "wall time"});
  h.row()
      .cell("HIGRAD (Navier-Stokes FD, LES)")
      .cell("Salt Lake City 1.6x1.5 km")
      .cell("160x150x36")
      .cell("10 m")
      .cell("a few hours");
  char model_minutes[32];
  std::snprintf(model_minutes, sizeof(model_minutes), "%.0f min (model)",
                b.gpu_total_ms * 1000 / 1000.0 / 60.0);
  h.row()
      .cell("GPU cluster LBM (this repro)")
      .cell("Times Square 1.66x1.13 km")
      .cell("480x400x80")
      .cell("3.8 m")
      .cell(model_minutes);
  h.print();

  // --- Functional urban run at reduced scale ---------------------------
  city::CityParams cp;
  city::CityModel model(cp);
  const Int3 dim{160, 132, 27};
  lbm::Lattice lat(dim);
  city::WindScenario wind = city::WindScenario::northeasterly(Real(0.08));
  city::apply_wind_boundaries(lat, wind);
  lat.init_equilibrium(Real(1), wind.velocity);
  city::VoxelizeParams vp;
  vp.meters_per_cell = Real(12);  // ~3x coarser than the paper's 3.8 m
  vp.origin_cells = Int3{8, 10, 0};
  const i64 solid = city::voxelize(model, lat, vp);

  // Span-classified pooled kernels: bit-identical to the serial split
  // reference, just faster (the classification is built once up front).
  ThreadPool& pool = ThreadPool::global();
  Timer timer;
  const int steps = 60;
  for (int s = 0; s < steps; ++s) {
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      lbm::collide_bgk(lat, lbm::BgkParams{Real(0.55), Vec3{}}, pool);
    }
    {
      obs::ScopedSpan span(rec, "stream", 0, "lbm");
      lbm::stream(lat, pool);
    }
  }
  const double ms_per_step = timer.millis() / steps;

  tracer::TracerCloud cloud;
  cloud.release(Int3{dim.x * 3 / 4, dim.y * 3 / 4, 2}, 2000);
  {
    obs::ScopedSpan span(rec, "tracer.advect", 0, "tracer");
    for (int s = 0; s < 100; ++s) cloud.step(lat);
  }

  Table f("Functional urban run (reduced scale, this machine)");
  f.set_header({"quantity", "value"});
  f.row().cell("lattice").cell("160x132x27");
  f.row().cell("buildings").cell(long(model.buildings().size()));
  f.row().cell("blocks").cell(long(model.num_blocks()));
  f.row().cell("solid cells").cell(long(solid));
  f.row().cell("host ms/step").cell(ms_per_step, 1);
  f.row().cell("max |u| after spin-up").cell(lbm::max_velocity(lat), 3);
  f.row().cell("tracers in flight").cell(long(cloud.num_particles()));
  f.row().cell("tracers escaped").cell(long(cloud.num_escaped()));
  const gpulbm::BoundaryCoverage cov = gpulbm::analyze_boundary_coverage(lat);
  f.row().cell("boundary cells").cell(long(cov.boundary_cells));
  f.row().cell("boundary rects").cell(long(cov.rect_count));
  f.row()
      .cell("rect memory savings (Sec 4.2)")
      .cell(100.0 * cov.savings(), 1);
  f.print();

  if (rec) {
    recorder.set_gauge("urban.ms_per_step", 0, ms_per_step);
    obs::write_chrome_trace(trace_path, recorder);
    const std::string csv_path = obs::csv_sibling_path(trace_path);
    io::write_csv(csv_path, obs::trace_table(recorder));
    std::printf("wrote %s and %s\n", trace_path.c_str(), csv_path.c_str());
  }
  return 0;
}
