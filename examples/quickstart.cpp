// Quickstart: simulate 3D flow past a sphere in a channel with the serial
// solver, print convergence diagnostics, and write VTK output you can
// open in ParaView.
//
//   ./quickstart [output_dir]
#include <cstdio>
#include <filesystem>
#include <string>

#include "io/vtk_writer.hpp"
#include "lbm/boundary.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/solver.hpp"

int main(int argc, char** argv) {
  using namespace gc;
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(out_dir);

  // 1. Configure a solver: BGK collision, relaxation time tau = 0.6
  //    (kinematic viscosity nu = (tau - 1/2)/3 = 0.0333 lattice units).
  lbm::SolverConfig cfg;
  cfg.tau = Real(0.6);
  lbm::Solver solver(Int3{96, 40, 40}, cfg);
  lbm::Lattice& lat = solver.lattice();

  // 2. Boundary conditions: inflow on the left, outflow on the right,
  //    free-slip side walls, and a sphere obstacle with curved-boundary
  //    (Bouzidi) links for sub-cell accuracy.
  const Vec3 u_in{Real(0.08), 0, 0};
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  for (auto f : {lbm::FACE_YMIN, lbm::FACE_YMAX, lbm::FACE_ZMIN,
                 lbm::FACE_ZMAX}) {
    lat.set_face_bc(f, lbm::FaceBc::FreeSlip);
  }
  lat.set_inlet(Real(1), u_in);
  lat.init_equilibrium(Real(1), u_in);
  lat.fill_solid_sphere(Vec3{30, 20, 20}, Real(6), /*curved=*/true);

  const double diameter = 12.0;
  const double re = u_in.x * diameter / lbm::viscosity_from_tau(cfg.tau);
  std::printf("Flow past a sphere: Re = %.0f, lattice 96x40x40, %lld curved links\n",
              re, static_cast<long long>(lat.curved_links().size()));

  // 3. Run, printing drag every 100 steps (momentum-exchange method).
  for (int block = 0; block < 8; ++block) {
    solver.run(100);
    const Vec3 drag = lbm::momentum_exchange_force(lat);
    std::printf("step %4lld  drag = (%+.5f, %+.5f, %+.5f)  max|u| = %.4f\n",
                static_cast<long long>(solver.step_count()), double(drag.x),
                double(drag.y), double(drag.z),
                double(lbm::max_velocity(lat)));
  }

  // 4. Write the velocity magnitude and density to VTK.
  std::vector<Vec3> u;
  lbm::compute_velocity_field(lat, u);
  std::vector<Real> rho;
  lbm::compute_density_field(lat, rho);
  std::vector<float> speed(u.size());
  for (std::size_t c = 0; c < u.size(); ++c) speed[c] = u[c].norm();
  std::vector<float> rho_f(rho.begin(), rho.end());
  io::write_vtk_scalar(out_dir + "/quickstart_speed.vtk", lat.dim(), speed,
                       "speed");
  io::write_vtk_scalar(out_dir + "/quickstart_density.vtk", lat.dim(), rho_f,
                       "rho");
  std::printf("Wrote %s/quickstart_speed.vtk and quickstart_density.vtk\n",
              out_dir.c_str());
  return 0;
}
