// The paper's flagship application (Section 5) at laptop scale: airborne
// contaminant dispersion over a procedurally generated Manhattan-style
// district. Northeasterly wind spins up the flow field, then tracer
// particles released at street level disperse along the LBM links.
// Writes VTK volumes (velocity, contaminant density) and streamlines.
//
//   ./urban_dispersion [--out DIR] [--spin-up N] [--tracer-steps N]
//                      [--wind SPEED] [--seed S] [--trace FILE.json]
//                      (--help for all)
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "city/city_model.hpp"
#include "util/args.hpp"
#include "city/voxelize.hpp"
#include "city/wind.hpp"
#include "io/ppm_writer.hpp"
#include "io/vtk_writer.hpp"
#include "io/csv.hpp"
#include "lbm/collision.hpp"
#include "lbm/les.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"
#include "obs/export.hpp"
#include "tracer/tracer.hpp"
#include "util/timer.hpp"
#include "viz/streamline.hpp"

int main(int argc, char** argv) {
  using namespace gc;
  ArgParser args("urban_dispersion",
                 "Section 5's contaminant dispersion at laptop scale");
  args.add_string("out", ".", "output directory for VTK/PPM files");
  args.add_int("spin-up", 250, "wind spin-up steps before tracer release");
  args.add_int("tracer-steps", 300, "dispersion steps after release");
  args.add_real("wind", 0.08, "wind speed in lattice units (< 0.2)");
  args.add_int("seed", 2004, "city generator seed");
  args.add_string("trace", "",
                  "write a Chrome-trace JSON (+ CSV sibling) of the run");
  if (!args.parse(argc, argv)) return 1;
  const std::string out_dir = args.get_string("out");
  std::filesystem::create_directories(out_dir);
  const std::string trace_path = args.get_string("trace");
  obs::TraceRecorder recorder;
  obs::TraceRecorder* rec = trace_path.empty() ? nullptr : &recorder;
  const int spin_up = static_cast<int>(args.get_int("spin-up"));
  const int tracer_steps = static_cast<int>(args.get_int("tracer-steps"));

  // The paper's 480x400x80 at 3.8 m/cell needs a cluster; at 12 m/cell
  // the same pipeline fits a single machine.
  const Int3 dim{160, 120, 30};
  city::CityParams cp;
  cp.seed = static_cast<u64>(args.get_int("seed"));
  city::CityModel model{cp};
  std::printf("City: %d blocks, %zu buildings, tallest %.0f m\n",
              model.num_blocks(), model.buildings().size(),
              double(model.max_height()));

  lbm::Lattice lat(dim);
  city::WindScenario wind =
      city::WindScenario::northeasterly(Real(args.get_real("wind")));
  wind.profile_exponent = Real(0.25);  // urban atmospheric boundary layer
  city::apply_wind_boundaries(lat, wind);
  lat.init_equilibrium(Real(1), wind.velocity);

  city::VoxelizeParams vp;
  vp.meters_per_cell = Real(12);
  vp.origin_cells = Int3{10, 12, 0};
  const i64 solid = city::voxelize(model, lat, vp);
  std::printf("Voxelized %lld solid cells on a %dx%dx%d lattice\n",
              static_cast<long long>(solid), dim.x, dim.y, dim.z);

  // Spin up the wind field (the paper runs 1000 steps at full scale).
  // Smagorinsky LES keeps the under-resolved street-canyon shear stable.
  Timer t;
  const lbm::SmagorinskyParams p{Real(0.55), Real(0.14)};
  for (int s = 0; s < spin_up; ++s) {
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      lbm::collide_bgk_les(lat, p);
    }
    {
      obs::ScopedSpan span(rec, "stream", 0, "lbm");
      lbm::stream(lat);
    }
    if ((s + 1) % 50 == 0) {
      std::printf("  spin-up %4d/%d  max|u| = %.4f\n", s + 1, spin_up,
                  double(lbm::max_velocity(lat)));
    }
  }
  std::printf("Spin-up took %.1f s (%.1f ms/step)\n", t.seconds(),
              t.millis() / spin_up);

  // Streamlines through the district (Figure 12's visualization).
  std::vector<Vec3> u;
  lbm::compute_velocity_field(lat, u);
  std::vector<Vec3> seeds;
  for (int y = 10; y < dim.y; y += 12) {
    for (int z = 2; z < dim.z; z += 8) {
      seeds.push_back(Vec3{Real(dim.x - 2), Real(y), Real(z)});
    }
  }
  const auto lines = viz::trace_streamlines(lat, u, seeds);
  io::write_vtk_polylines(out_dir + "/urban_streamlines.vtk", lines);

  // Release contaminant tracers at a street-level source and disperse
  // (1000 steps of flow first, then tracers — Section 5's protocol).
  tracer::TracerCloud cloud;
  const Int3 source{dim.x * 2 / 3, dim.y * 2 / 3, 2};
  cloud.release(source, 20000);
  for (int s = 0; s < tracer_steps; ++s) {
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      lbm::collide_bgk_les(lat, p);
    }
    {
      obs::ScopedSpan span(rec, "stream", 0, "lbm");
      lbm::stream(lat);
    }
    {
      obs::ScopedSpan span(rec, "tracer.advect", 0, "tracer");
      cloud.step(lat);
    }
  }
  std::printf("Tracers: %lld in flight, %lld escaped the domain\n",
              static_cast<long long>(cloud.num_particles()),
              static_cast<long long>(cloud.num_escaped()));

  std::vector<float> density;
  cloud.deposit(lat, density);
  io::write_vtk_scalar(out_dir + "/urban_contaminant.vtk", dim, density,
                       "contaminant");

  std::vector<float> speed(u.size());
  lbm::compute_velocity_field(lat, u);
  for (std::size_t c = 0; c < u.size(); ++c) speed[c] = u[c].norm();
  io::write_vtk_scalar(out_dir + "/urban_speed.vtk", dim, speed, "speed");
  io::write_ppm_slice(out_dir + "/urban_speed_z3.ppm", dim, speed, 3);
  io::write_ppm_slice(out_dir + "/urban_contaminant_z3.ppm", dim, density, 3);

  std::printf(
      "Wrote urban_streamlines.vtk, urban_contaminant.vtk, urban_speed.vtk,\n"
      "and PPM quick-looks to %s\n",
      out_dir.c_str());

  if (rec) {
    recorder.add_counter("urban.spin_up_steps", 0, spin_up);
    recorder.add_counter("urban.tracer_steps", 0, tracer_steps);
    obs::write_chrome_trace(trace_path, recorder);
    const std::string csv_path = obs::csv_sibling_path(trace_path);
    io::write_csv(csv_path, obs::trace_table(recorder));
    std::printf("wrote %s and %s\n", trace_path.c_str(), csv_path.c_str());
  }
  return 0;
}
