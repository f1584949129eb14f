// Online cluster visualization (Section 5's future-work path): the
// simulation state already lives on the nodes, so each node renders its
// own sub-volume and the images composite over the Sepia-style network.
// Runs a distributed dispersion simulation, renders per-node density
// tiles, composites them front-to-back, and writes the frame as PPM
// alongside the modeled compositing-network latency.
//
//   ./online_viz [output_dir]
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/parallel_lbm.hpp"
#include "io/ppm_writer.hpp"
#include "lbm/macroscopic.hpp"
#include "tracer/tracer.hpp"
#include "util/table.hpp"
#include "viz/compositor.hpp"

int main(int argc, char** argv) {
  using namespace gc;
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(out_dir);

  // A small distributed run: 2x2 nodes, plume in a crosswind.
  const Int3 dim{64, 64, 24};
  lbm::Lattice global(dim);
  global.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  global.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  global.set_face_bc(lbm::FACE_YMIN, lbm::FaceBc::FreeSlip);
  global.set_face_bc(lbm::FACE_YMAX, lbm::FaceBc::FreeSlip);
  global.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  global.set_face_bc(lbm::FACE_ZMAX, lbm::FaceBc::FreeSlip);
  global.set_inlet(Real(1), Vec3{0.08f, 0, 0});
  global.init_equilibrium(Real(1), Vec3{0.08f, 0, 0});
  global.fill_solid_box(Int3{28, 28, 0}, Int3{34, 36, 14});

  core::ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  core::ParallelLbm cluster(global, cfg);
  cluster.run(150);

  // Disperse tracers on the gathered field (the render inputs would stay
  // node-local in the real system; gathering here keeps the demo small).
  lbm::Lattice flow(dim);
  cluster.gather(flow);
  // Carry boundary metadata over for the tracer stepper.
  for (int f = 0; f < 6; ++f) {
    flow.set_face_bc(static_cast<lbm::Face>(f),
                     global.face_bc(static_cast<lbm::Face>(f)));
  }
  for (i64 c = 0; c < flow.num_cells(); ++c) {
    flow.set_flag(c, global.flag(c));
  }
  tracer::TracerCloud cloud;
  cloud.release(Int3{6, 32, 2}, 30000);
  for (int s = 0; s < 120; ++s) cloud.step(flow);
  std::vector<float> density;
  cloud.deposit(flow, density);

  // Each node renders its own sub-volume tile; composite front-to-back.
  const core::Decomposition3& decomp = cluster.decomposition();
  std::vector<viz::ImageTile> tiles;
  for (int node = 0; node < decomp.num_nodes(); ++node) {
    const core::SubDomain& b = decomp.block(node);
    const Int3 size = b.size();
    std::vector<float> sub(static_cast<std::size_t>(size.volume()));
    for (int z = 0; z < size.z; ++z) {
      for (int y = 0; y < size.y; ++y) {
        for (int x = 0; x < size.x; ++x) {
          sub[static_cast<std::size_t>(
              x + i64(size.x) * (y + i64(size.y) * z))] =
              density[static_cast<std::size_t>(
                  flow.idx(b.lo.x + x, b.lo.y + y, b.lo.z + z))];
        }
      }
    }
    tiles.push_back(viz::render_density_tile(decomp, node, sub, 2, 0.15f));
  }
  const viz::ImageTile frame = viz::composite_cluster(decomp, tiles, 2, true);

  // Write the composited frame (alpha as grayscale) as a PPM quick-look.
  std::vector<float> alpha(static_cast<std::size_t>(frame.width) *
                           frame.height);
  for (std::size_t p = 0; p < alpha.size(); ++p) {
    alpha[p] = frame.rgba[p * 4 + 3];
  }
  io::write_ppm_slice(out_dir + "/online_viz_frame.ppm",
                      Int3{frame.width, frame.height, 1}, alpha, 0, 0.0f,
                      1.0f);

  Table t("Online visualization (Sepia-style composing network)");
  t.set_header({"quantity", "value"});
  t.row().cell("nodes").cell(long(decomp.num_nodes()));
  t.row().cell("frame").cell("64x64");
  t.row().cell("tracers rendered").cell(long(cloud.num_particles()));
  t.row()
      .cell("compositing latency (ms, 1024x768 frame)")
      .cell(viz::compositing_seconds(decomp.num_nodes(), 1024, 768) * 1e3, 2);
  t.row()
      .cell("30-node latency (ms)")
      .cell(viz::compositing_seconds(30, 1024, 768) * 1e3, 2);
  t.print();
  std::printf("Wrote %s/online_viz_frame.ppm\n", out_dir.c_str());
  return 0;
}
