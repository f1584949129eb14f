// The chaos ensemble: a 24-scenario matrix run against a service whose
// partitions live under a seeded adversarial FaultSpec matrix (message
// drop/duplicate/delay/corruption, a rank crash) while the flow cache
// operates under a byte budget that forces constant eviction — plus
// mid-run on-disk tampering (a flipped checkpoint byte, a deleted
// manifest, an orphaned tmp file). Acceptance is absolute: every chaos
// result must be bit-exact against the clean, fault-free run, and the
// whole ensemble must be deterministic under the same seeds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "netsim/fault.hpp"
#include "service/scenario.hpp"
#include "service/scenario_service.hpp"
#include "temp_path.hpp"

namespace gc::service {
namespace {

namespace fs = std::filesystem;

using test::TempPath;

constexpr int kVariants = 12;  // x2 submissions = 24 scenarios

/// The scenario matrix: 4 wind speeds x 3 city variants, each with its
/// own tracer seed. Distinct (wind, city) pairs address distinct cache
/// entries; resubmitting a variant must reproduce it bit-exactly.
ScenarioRequest scenario_variant(int i) {
  ScenarioRequest req;
  req.dim = Int3{24, 16, 8};
  req.city.extent_x_m = Real(60);
  req.city.extent_y_m = Real(40);
  req.city.avenues = 2;
  req.city.streets = 2;
  req.city.mean_height_m = Real(12);
  req.city.tall_height_m = Real(20);
  req.city.seed += (i / 4) % 3;
  req.voxel.meters_per_cell = Real(3.8);
  req.voxel.origin_cells = Int3{4, 2, 0};
  req.wind.velocity = Vec3{Real(0.03) + Real(0.005) * (i % 4), Real(0),
                           Real(0)};
  req.spin_up_steps = 12;
  req.releases.push_back(Release{Int3{3, 8, 1}, 500});
  req.tracer_steps = 25;
  req.tracer_seed = 100 + static_cast<u64>(i);
  return req;
}

struct ScenarioBytes {
  std::vector<float> concentration;
  i64 escaped = 0;
  i64 alive = 0;

  bool operator==(const ScenarioBytes& o) const {
    return concentration == o.concentration && escaped == o.escaped &&
           alive == o.alive;
  }
};

ScenarioBytes bytes_of(const ScenarioResult& r) {
  return ScenarioBytes{r.concentration, r.particles_escaped,
                       r.particles_alive};
}

std::vector<ScenarioBytes> run_batch(ScenarioService& svc) {
  std::vector<std::future<ScenarioResult>> futs;
  futs.reserve(kVariants);
  for (int i = 0; i < kVariants; ++i) {
    futs.push_back(svc.submit(scenario_variant(i)));
  }
  std::vector<ScenarioBytes> out;
  out.reserve(kVariants);
  for (std::future<ScenarioResult>& f : futs) out.push_back(bytes_of(f.get()));
  return out;
}

/// On-disk tampering between batches: flip a byte deep inside one
/// committed checkpoint, delete one (other) entry's manifest — the
/// commit-protocol crash window — and drop an orphaned tmp file.
void tamper_cache_dir(const std::string& dir) {
  std::string ckpt, mani;
  for (const auto& ent : fs::directory_iterator(dir)) {
    if (!ent.is_regular_file()) continue;
    const std::string ext = ent.path().extension().string();
    const std::string p = ent.path().string();
    if (ext == ".gclb" && ckpt.empty()) ckpt = p;
    if (ext == ".gcmf" && mani.empty() &&
        (ckpt.empty() || ent.path().stem() != fs::path(ckpt).stem())) {
      mani = p;
    }
  }
  ASSERT_FALSE(ckpt.empty());
  ASSERT_FALSE(mani.empty());
  {
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    char b = 0;
    f.seekg(64);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(64);
    f.write(&b, 1);
  }
  fs::remove(mani);
  std::ofstream(dir + "/flow_orphan.gclb.tmp") << "torn write";
}

struct ChaosOutcome {
  std::vector<ScenarioBytes> first;   ///< batch 1 (cold + evicting)
  std::vector<ScenarioBytes> second;  ///< batch 2 (after tampering)
  i64 injected_faults = 0;
  i64 evictions = 0;
  i64 cache_bytes = 0;
};

/// One full chaos service lifetime under the seeded fault matrix.
ChaosOutcome run_chaos(const std::string& dir, i64 budget) {
  // The fault matrix: slot 0 sees every message-level fault kind at 2%,
  // slot 1 crashes rank 1 at step 3 (once) and drops 1%, slot 2 flips
  // payload bits at 5%. All schedules are pure functions of the seeds.
  netsim::FaultSpec noisy(101);
  noisy.rates = netsim::MessageFaultRates{0.02, 0.02, 0.02, 0.02};
  netsim::FaultSpec crashy(202);
  crashy.rates.drop = 0.01;
  crashy.crashes.push_back(netsim::CrashFault{1, 3});
  netsim::FaultSpec flippy(303);
  flippy.rates.corrupt = 0.05;

  ServiceConfig cfg;
  cfg.cache_dir = dir;
  cfg.cache_max_bytes = budget;
  cfg.workers = 3;
  cfg.partitions = 3;
  cfg.partition.grid.dims = Int3{2, 1, 1};
  cfg.partition.reliability.recv_timeout_ms = 25;
  cfg.partition.reliability.max_retries = 4;
  cfg.partition.checkpoint_every = 4;
  cfg.partition.max_rollbacks = 8;
  cfg.partition_faults = {&noisy, &crashy, &flippy};
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_ms = 1;
  ScenarioService svc(cfg);

  ChaosOutcome out;
  out.first = run_batch(svc);
  svc.drain();
  tamper_cache_dir(dir);
  out.second = run_batch(svc);
  svc.drain();

  const auto tally = [](const netsim::FaultSpec& fs_) {
    const netsim::FaultCounters c = fs_.counters();
    return c.drops + c.duplicates + c.delays + c.corruptions + c.crashes;
  };
  out.injected_faults = tally(noisy) + tally(crashy) + tally(flippy);
  out.evictions = svc.cache().stats().evictions;
  out.cache_bytes = svc.cache().bytes();
  return out;
}

TEST(ChaosTest, FaultedEnsembleIsBitExactAndDeterministic) {
  // Ground truth: the same matrix on a fault-free, unbounded service.
  TempPath clean_dir("chaos_clean");
  i64 clean_bytes = 0;
  std::vector<ScenarioBytes> truth;
  {
    ServiceConfig cfg;
    cfg.cache_dir = clean_dir.path();
    cfg.workers = 3;
    cfg.partitions = 3;
    cfg.partition.grid.dims = Int3{2, 1, 1};
    ScenarioService svc(cfg);
    truth = run_batch(svc);
    clean_bytes = svc.cache().bytes();
  }
  ASSERT_EQ(truth.size(), static_cast<std::size_t>(kVariants));
  ASSERT_GT(clean_bytes, 0);

  // The chaos budget holds ~a third of the working set, so serving all
  // 12 keys forces eviction and recomputation throughout.
  const i64 budget = clean_bytes / 3;
  TempPath chaos_a("chaos_run_a");
  const ChaosOutcome a = run_chaos(chaos_a.path(), budget);

  // Bit-exactness: every scenario under faults + eviction + tampering
  // reproduces the clean run, both before and after the tampering.
  for (int i = 0; i < kVariants; ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_TRUE(a.first[u] == truth[u]) << "batch 1, variant " << i;
    EXPECT_TRUE(a.second[u] == truth[u]) << "batch 2, variant " << i;
  }
  // The chaos actually happened: faults fired, the budget forced
  // evictions, and the byte bound held at rest.
  EXPECT_GE(a.injected_faults, 1);
  EXPECT_GE(a.evictions, 1);
  EXPECT_LE(a.cache_bytes, budget);

  // Determinism: an identical chaos service (same seeds, fresh
  // directory) lands on the same bytes.
  TempPath chaos_b("chaos_run_b");
  const ChaosOutcome b = run_chaos(chaos_b.path(), budget);
  for (int i = 0; i < kVariants; ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_TRUE(b.first[u] == a.first[u]) << "rerun batch 1, variant " << i;
    EXPECT_TRUE(b.second[u] == a.second[u]) << "rerun batch 2, variant " << i;
  }
}

}  // namespace
}  // namespace gc::service
