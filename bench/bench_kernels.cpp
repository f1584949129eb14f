// Kernel microbenchmarks (google-benchmark): host LBM collision,
// streaming, fused step, MRT, thermal update, GPU-simulated step, tracer
// hop, and the pack/unpack paths of the border exchange — the memory-bound
// hot paths on the in-place AA lattice, the default, and on the sparse
// fluid-index layout — plus the pooled fused and split steps on a
// solid-laden urban scene in both storage modes.
//
// Machine-readable output is google-benchmark's own, e.g.
//   bench_kernels --benchmark_filter=Urban --benchmark_out=urban.json
//                 --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <vector>

#include "core/border_exchange.hpp"
#include "gpulbm/gpu_solver.hpp"
#include "io/bench_json.hpp"
#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/mrt.hpp"
#include "lbm/stream.hpp"
#include "lbm/thermal.hpp"
#include "tracer/tracer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gc;

lbm::Lattice make_lattice(int n) {
  lbm::Lattice lat(Int3{n, n, n});
  lat.init_equilibrium(Real(1), Vec3{0.05f, 0.02f, 0.01f});
  return lat;
}

// A synthetic city: 7x7-cell building blocks on an 8-cell pitch, one
// cell short of the lid, separated by one-cell street canyons (~3/4
// solid), with an x-inflow, an outflow and ground. Converted to `mode`
// after seeding.
lbm::Lattice make_urban(Int3 dim, lbm::StorageMode mode) {
  lbm::Lattice lat(dim);
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  lat.init_equilibrium(Real(1), Vec3{0.05f, 0, 0});
  for (int bx = 1; bx + 7 <= dim.x; bx += 8) {
    for (int by = 1; by + 7 <= dim.y; by += 8) {
      lat.fill_solid_box(Int3{bx, by, 0}, Int3{bx + 7, by + 7, dim.z - 1});
    }
  }
  lat.convert_storage(mode);
  lat.cell_class();  // classification built outside the timed loop
  return lat;
}

// The split path on the in-place AA lattice: the advancing collision
// performs the slot swap, and the stream after it is a parity flip plus
// boundary fixups. An AA collide needs a stream before the next one, so
// the case alternates the two, as a split step does.
void BM_CollideBgk(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  for (auto _ : state) {
    lbm::collide_bgk(lat, lbm::BgkParams{Real(0.8), Vec3{}});
    lbm::stream(lat);  // keep the collide/stream alternation valid
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_CollideBgk)->Arg(32)->Arg(64)->Arg(80);

// A stream with no collide before it: on AA that is the identity advance
// (a read and a write of every plane, the collide's traffic without its
// arithmetic) plus the parity flip.
void BM_Stream(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  for (auto _ : state) {
    lbm::stream(lat);
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_Stream)->Arg(32)->Arg(64)->Arg(80);

void BM_FusedStreamCollide(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}});
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_FusedStreamCollide)->Arg(32)->Arg(64)->Arg(80);

// The AA fused step on a box walled on all six faces: its boundary ring
// is slow (every ring cell has a link that bounces back), so this keeps a
// number for the AA slow path — the collect before the flip and the
// fixup scatter after it — which a periodic box no longer has.
void BM_FusedStreamCollideWalled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  for (int face = 0; face < 6; ++face) {
    lat.set_face_bc(static_cast<lbm::Face>(face), lbm::FaceBc::Wall);
  }
  lat.cell_class();  // classification built outside the timed loop
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}});
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_FusedStreamCollideWalled)->Arg(64);

// Sparse fluid-index storage on a solid-laden domain (same obstacle as
// BM_StreamSpans): compact buffers over the non-solid cells only, so both
// passes touch ~f bytes where f is the fluid fraction — solid cells cost
// neither bandwidth nor compute.
void BM_FusedStreamCollideSparse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  lat.fill_solid_box(Int3{n / 4, n / 4, 0}, Int3{n / 2, n / 2, n / 2});
  lat.convert_storage(lbm::StorageMode::Sparse);
  lat.cell_class();
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}});
  }
  state.SetItemsProcessed(state.iterations() * lat.sparse_active_cells());
}
BENCHMARK(BM_FusedStreamCollideSparse)->Arg(64)->Arg(80);

// Span-path streaming on a mixed domain: inlet/outflow faces plus solid
// obstacles, so the precomputed classification carries bulk spans, a slow
// boundary minority, and solid runs (the realistic urban-lattice shape).
void BM_StreamSpans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  lat.fill_solid_box(Int3{n / 4, n / 4, 0}, Int3{n / 2, n / 2, n / 2});
  lat.cell_class();  // classification built outside the timed loop
  for (auto _ : state) {
    lbm::stream(lat);
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_StreamSpans)->Arg(64)->Arg(80);

// Pooled fused stream+collide: the fastest host path. The second argument
// is the pool size, to show scaling with threads.
void BM_FusedPooled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  lbm::Lattice lat = make_lattice(n);
  lat.cell_class();
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}},
                              lbm::StepContext{&pool, nullptr, 0});
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_FusedPooled)
    ->Args({80, 1})
    ->Args({80, 2})
    ->Args({80, 4})
    ->Args({80, 8})
    ->UseRealTime();

// The urban scene on the pooled host paths in both storage modes: no
// pass visits the ~3/4 solid cells, and the sparse layout does not store
// them either. Items are non-solid cell updates; the counters are the
// analytic f-plane traffic of one step, the resident distribution bytes
// and the non-solid share.
void set_urban_counters(benchmark::State& state, const lbm::Lattice& lat,
                        double bytes_per_step) {
  i64 fluid = 0;
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    if (lat.flag(c) != lbm::CellType::Solid) ++fluid;
  }
  state.SetItemsProcessed(state.iterations() * fluid);
  state.counters["bytes_per_step"] = bytes_per_step;
  state.counters["storage_bytes"] = static_cast<double>(lat.storage_bytes());
  state.counters["fluid_fraction"] =
      static_cast<double>(fluid) / static_cast<double>(lat.num_cells());
}

void BM_UrbanFused(benchmark::State& state, Int3 dim, lbm::StorageMode mode) {
  lbm::Lattice lat = make_urban(dim, mode);
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}},
                              ThreadPool::global());
  }
  set_urban_counters(state, lat, io::fused_step_traffic_bytes(lat));
}
BENCHMARK_CAPTURE(BM_UrbanFused, AA_80, Int3{80, 80, 80},
                  lbm::StorageMode::AA)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_UrbanFused, Sparse_80, Int3{80, 80, 80},
                  lbm::StorageMode::Sparse)
    ->UseRealTime();
// ~2.6x the cells, in less distribution memory than the dense 80^3 case.
BENCHMARK_CAPTURE(BM_UrbanFused, Sparse_128x128x80, Int3{128, 128, 80},
                  lbm::StorageMode::Sparse)
    ->UseRealTime();

void BM_UrbanSplit(benchmark::State& state, Int3 dim, lbm::StorageMode mode) {
  lbm::Lattice lat = make_urban(dim, mode);
  ThreadPool& pool = ThreadPool::global();
  for (auto _ : state) {
    lbm::collide_bgk(lat, lbm::BgkParams{Real(0.8), Vec3{}}, pool);
    lbm::stream(lat, pool);
  }
  set_urban_counters(state, lat, io::split_step_traffic_bytes(lat));
}
BENCHMARK_CAPTURE(BM_UrbanSplit, AA_80, Int3{80, 80, 80},
                  lbm::StorageMode::AA)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_UrbanSplit, Sparse_80, Int3{80, 80, 80},
                  lbm::StorageMode::Sparse)
    ->UseRealTime();

// Full classification rebuild (the one-time O(cells x 18) pass the
// per-step kernels no longer pay). set_flag dirties, cell_class rebuilds.
void BM_ClassificationRebuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  lat.fill_solid_box(Int3{n / 4, n / 4, 0}, Int3{n / 2, n / 2, n / 2});
  for (auto _ : state) {
    lat.set_flag(0, lbm::CellType::Fluid);  // mark dirty, same value
    benchmark::DoNotOptimize(&lat.cell_class());
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_ClassificationRebuild)->Arg(80);

void BM_CollideMrt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  const lbm::MrtParams p = lbm::MrtParams::standard(Real(0.8));
  for (auto _ : state) {
    lbm::collide_mrt(lat, p);
    lbm::stream(lat);  // an AA collide needs a stream before the next
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_CollideMrt)->Arg(32);

void BM_ThermalStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  lbm::ThermalParams tp;
  tp.kappa = Real(0.1);
  lbm::ThermalField T(lat.dim(), tp);
  std::vector<Vec3> u(static_cast<std::size_t>(lat.num_cells()),
                      Vec3{0.05f, 0, 0});
  for (auto _ : state) {
    T.step(lat, u);
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_ThermalStep)->Arg(32);

void BM_GpuSimStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  gpusim::GpuDevice dev(gpusim::GpuSpec::geforce_fx5800_ultra(),
                        gpusim::BusSpec::agp8x());
  gpulbm::GpuLbmSolver gpu(dev, lat, Real(0.8));
  for (auto _ : state) {
    gpu.step();
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_GpuSimStep)->Arg(16);

void BM_BorderPackFace(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::Decomposition3 d(Int3{2 * n, n, n},
                               netsim::NodeGrid{Int3{2, 1, 1}});
  const core::LocalDomain ld = core::LocalDomain::make(d, 0);
  lbm::Lattice lat(ld.local_dim());
  lat.init_equilibrium(Real(1), Vec3{0.05f, 0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pack_face(lat, ld, 1));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 5);
}
BENCHMARK(BM_BorderPackFace)->Arg(80);

void BM_TracerStep(benchmark::State& state) {
  lbm::Lattice lat = make_lattice(32);
  tracer::TracerCloud cloud;
  cloud.release(Int3{16, 16, 16}, 10000);
  for (auto _ : state) {
    cloud.step(lat);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TracerStep);

void BM_Moments(benchmark::State& state) {
  lbm::Lattice lat = make_lattice(48);
  std::vector<Vec3> u;
  for (auto _ : state) {
    lbm::compute_velocity_field(lat, u);
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_Moments);

}  // namespace

BENCHMARK_MAIN();
