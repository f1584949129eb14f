// Hybrid thermal LBM example (Section 4.1's HTLBM): Rayleigh-Benard
// convection between a hot floor and a cold ceiling, using the MRT
// collision coupled to the finite-difference temperature field through
// Boussinesq buoyancy. Prints the Nusselt-like convective flux and
// writes VTK fields.
//
//   ./thermal_convection [--out DIR] [--steps N] (--help for all)
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "io/vtk_writer.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/solver.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace gc;
  ArgParser args("thermal_convection",
                 "Rayleigh-Benard convection with the hybrid thermal LBM");
  args.add_string("out", ".", "output directory for VTK fields");
  args.add_int("steps", 3000, "total LBM steps (run in 10 blocks)");
  if (!args.parse(argc, argv)) return 1;
  const std::string out_dir = args.get_string("out");
  std::filesystem::create_directories(out_dir);
  const int steps = static_cast<int>(args.get_int("steps"));

  const Int3 dim{96, 4, 32};

  lbm::SolverConfig cfg;
  cfg.collision = lbm::CollisionKind::MRT;
  cfg.tau = Real(0.55);

  lbm::ThermalParams tp;
  tp.kappa = Real(0.02);
  tp.buoyancy = Real(1e-3);
  tp.t_ref = Real(0.5);
  tp.dirichlet_z = true;
  tp.t_hot = Real(1);
  tp.t_cold = Real(0);
  cfg.thermal = tp;

  // Rayleigh number for the setup (lattice units).
  const double nu = lbm::viscosity_from_tau(cfg.tau);
  const double H = dim.z;
  const double ra = double(tp.buoyancy) * (tp.t_hot - tp.t_cold) * H * H * H /
                    (nu * double(tp.kappa));
  std::printf("Rayleigh-Benard: %dx%dx%d, Ra = %.0f (critical ~1708)\n",
              dim.x, dim.y, dim.z, ra);

  lbm::Solver solver(dim, cfg);
  lbm::Lattice& lat = solver.lattice();
  lat.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMAX, lbm::FaceBc::Wall);
  lat.init_equilibrium(Real(1), Vec3{});

  // Start from the conductive base state (linear profile between the
  // plates) with a sinusoidal perturbation — otherwise the profile needs
  // ~H^2/kappa steps to build before convection can even start.
  for (int z = 0; z < dim.z; ++z) {
    const Real base =
        tp.t_hot + (tp.t_cold - tp.t_hot) * Real(z + 1) / Real(dim.z + 1);
    for (int y = 0; y < dim.y; ++y) {
      for (int x = 0; x < dim.x; ++x) {
        const Real bump = Real(
            0.02 * std::sin(2.0 * M_PI * x / dim.x * 3.0) *
            std::sin(M_PI * (z + 1) / double(dim.z + 1)));
        solver.thermal()->set_t(lat.idx(x, y, z), base + bump);
      }
    }
  }

  for (int block = 0; block < 10; ++block) {
    solver.run(steps / 10);
    // Convective heat flux <u_z T> across the mid-plane.
    double flux = 0;
    double max_uz = 0;
    const int zm = dim.z / 2;
    for (int y = 0; y < dim.y; ++y) {
      for (int x = 0; x < dim.x; ++x) {
        const i64 c = lat.idx(x, y, zm);
        const lbm::Moments m = lbm::cell_moments(lat, c);
        flux += m.u.z * solver.thermal()->t(c);
        max_uz = std::max(max_uz, std::abs(double(m.u.z)));
      }
    }
    std::printf("step %5lld  <u_z T> = %+.3e  max|u_z| = %.4f\n",
                static_cast<long long>(solver.step_count()),
                flux / (dim.x * dim.y), max_uz);
  }

  // Output temperature and velocity.
  std::vector<float> T(solver.thermal()->field().begin(),
                       solver.thermal()->field().end());
  io::write_vtk_scalar(out_dir + "/thermal_T.vtk", dim, T, "temperature");
  std::vector<Vec3> u;
  lbm::compute_velocity_field(lat, u);
  io::write_vtk_vector(out_dir + "/thermal_u.vtk", dim, u, "velocity");
  std::printf("Wrote thermal_T.vtk and thermal_u.vtk to %s\n",
              out_dir.c_str());
  return 0;
}
