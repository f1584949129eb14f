// Fault tolerance: deterministic fault schedules, the reliable exchange
// protocol surviving drops/duplicates/reorders/corruption (hand-picked
// and seeded-fuzzed), the divergence sentinel, and checkpoint-based
// recovery producing results bit-identical to an undisturbed run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/parallel_lbm.hpp"
#include "core/recovery.hpp"
#include "io/checkpoint.hpp"
#include "lbm/collision.hpp"
#include "lbm/solver.hpp"
#include "netsim/mpilite.hpp"
#include "obs/trace.hpp"
#include "temp_path.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gc {
namespace {

using core::ParallelConfig;
using core::ParallelLbm;
using core::RecoveryConfig;
using core::RecoveryDriver;
using core::RecoveryReport;
using lbm::FaceBc;
using lbm::Lattice;
using netsim::Comm;
using netsim::FaultSpec;
using netsim::MpiLite;
using netsim::Payload;
using netsim::Request;

/// Scratch directory removed on destruction (cluster checkpoints are
/// whole directories, not single files).
using test::TempPath;

/// Same non-trivial setup as the parallel-vs-serial keystone test: mixed
/// face BCs, spatially varying state, an obstacle crossing block borders.
Lattice make_global(Int3 dim) {
  Lattice lat(dim);
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_YMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_YMAX, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::FreeSlip);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Int3 p = lat.coords(c);
    Real f[lbm::Q];
    lbm::equilibrium_all(
        Real(1) + Real(0.005) * Real((p.x + 2 * p.y + 3 * p.z) % 5),
        Vec3{Real(0.01) * Real(p.y % 3), Real(-0.01) * Real(p.z % 2),
             Real(0.005) * Real(p.x % 4)},
        f);
    for (int i = 0; i < lbm::Q; ++i) lat.set_f(i, c, f[i]);
  }
  lat.fill_solid_box(Int3{dim.x / 2 - 2, dim.y / 2 - 2, 0},
                     Int3{dim.x / 2 + 2, dim.y / 2 + 2, dim.z / 2});
  return lat;
}

/// All distributions of non-solid cells (solid flags taken from
/// `flags_ref`: gathered lattices carry default flags).
std::vector<Real> fluid_values(const Lattice& lat, const Lattice& flags_ref) {
  std::vector<Real> v;
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      if (flags_ref.flag(c) == lbm::CellType::Solid) continue;
      v.push_back(lat.f(i, c));
    }
  }
  return v;
}

std::vector<Real> gathered_values(const ParallelLbm& sim, Int3 dim,
                                  const Lattice& flags_ref) {
  Lattice g(dim);
  sim.gather(g);
  return fluid_values(g, flags_ref);
}

void expect_counters_eq(const netsim::FaultCounters& a,
                        const netsim::FaultCounters& b) {
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.corruptions, b.corruptions);
  EXPECT_EQ(a.crashes, b.crashes);
}

// ---------------------------------------------------------------------------
// FaultSpec: the schedule is a pure function of (seed, channel, seq).

TEST(FaultSpec, SameSeedSameSchedule) {
  FaultSpec a(42), b(42), other(43);
  a.rates = b.rates = other.rates = {0.3, 0.2, 0.15, 0.25};
  int differs_from_other = 0;
  for (u64 seq = 0; seq < 200; ++seq) {
    for (netsim::FaultKind kind :
         {netsim::FaultKind::Drop, netsim::FaultKind::Duplicate,
          netsim::FaultKind::Delay, netsim::FaultKind::Corrupt}) {
      const bool ra = a.roll(kind, 0, 1, 7, seq);
      const bool rb = b.roll(kind, 0, 1, 7, seq);
      ASSERT_EQ(ra, rb) << "seq=" << seq;
      if (ra != other.roll(kind, 0, 1, 7, seq)) ++differs_from_other;
    }
  }
  expect_counters_eq(a.counters(), b.counters());
  EXPECT_GT(a.counters().drops, 0);
  EXPECT_GT(differs_from_other, 0) << "seed does not influence the schedule";
}

TEST(FaultSpec, CorruptBitIsDeterministicAndInRange) {
  FaultSpec spec(9);
  for (u64 seq = 0; seq < 50; ++seq) {
    const u64 bit = spec.corrupt_bit(1, 0, 3, seq, 256);
    EXPECT_LT(bit, 256u);
    EXPECT_EQ(bit, spec.corrupt_bit(1, 0, 3, seq, 256));
  }
}

TEST(FaultSpec, CrashIsOneShot) {
  FaultSpec spec(0);
  spec.crashes.push_back({1, 5});
  EXPECT_FALSE(spec.should_crash(1, 4));
  EXPECT_FALSE(spec.should_crash(0, 5));  // wrong rank
  EXPECT_TRUE(spec.should_crash(1, 5));
  // After firing once the rank stays healthy: a rolled-back run can
  // replay past the crash point.
  EXPECT_FALSE(spec.should_crash(1, 5));
  EXPECT_FALSE(spec.should_crash(1, 6));
  EXPECT_EQ(spec.counters().crashes, 1);
}

TEST(FaultSpec, BlackholeWildcardsMatch) {
  FaultSpec spec(0);
  spec.blackholes.push_back({-1, 1, -1});  // anything to rank 1
  spec.blackholes.push_back({0, 2, 5});    // one exact channel
  EXPECT_TRUE(spec.blackholed(0, 1, 0));
  EXPECT_TRUE(spec.blackholed(3, 1, 9));
  EXPECT_FALSE(spec.blackholed(1, 0, 0));
  EXPECT_TRUE(spec.blackholed(0, 2, 5));
  EXPECT_FALSE(spec.blackholed(0, 2, 4));
}

// ---------------------------------------------------------------------------
// ReliableExchange: the envelope protocol on raw MpiLite channels.

TEST(ReliableExchange, DeliversInOrderUnderDrops) {
  MpiLite world(2);
  FaultSpec faults(101);
  faults.rates.drop = 0.3;
  world.set_fault_spec(&faults);
  world.set_reliability({5.0, 50, 1.5, 8.0});
  const int n = 50;
  world.run([n](Comm& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < n; ++k) {
        comm.send(1, netsim::kTest0, Payload{Real(k), Real(2 * k)});
      }
    } else {
      for (int k = 0; k < n; ++k) {
        const Payload p = comm.recv(0, netsim::kTest0);
        ASSERT_EQ(p, (Payload{Real(k), Real(2 * k)})) << "k=" << k;
      }
    }
  });
  EXPECT_GT(faults.counters().drops, 0);
  EXPECT_GT(world.reliability_totals().retransmits, 0);
}

TEST(ReliableExchange, SurvivesDuplicatesAndReorders) {
  MpiLite world(2);
  FaultSpec faults(202);
  faults.rates.duplicate = 0.4;
  faults.rates.delay = 0.3;
  world.set_fault_spec(&faults);
  world.set_reliability({5.0, 50, 1.5, 8.0});
  const int n = 60;
  world.run([n](Comm& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < n; ++k) comm.send(1, netsim::kTest2, Payload{Real(k)});
    } else {
      for (int k = 0; k < n; ++k) {
        ASSERT_EQ(comm.recv(0, netsim::kTest2), Payload{Real(k)}) << "k=" << k;
      }
    }
  });
  EXPECT_GT(faults.counters().duplicates, 0);
  EXPECT_GT(faults.counters().delays, 0);
  EXPECT_GT(world.reliability_totals().duplicates_dropped, 0);
}

TEST(ReliableExchange, DetectsAndRepairsCorruption) {
  MpiLite world(2);
  FaultSpec faults(303);
  faults.rates.corrupt = 0.5;
  world.set_fault_spec(&faults);
  world.set_reliability({5.0, 50, 1.5, 8.0});
  const int n = 30;
  world.run([n](Comm& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < n; ++k) {
        comm.send(1, netsim::kTest0, Payload{Real(k), Real(k) / 3, Real(-k)});
      }
    } else {
      for (int k = 0; k < n; ++k) {
        // The CRC must catch every flipped bit; only clean retransmitted
        // payloads may be delivered.
        ASSERT_EQ(comm.recv(0, netsim::kTest0), (Payload{Real(k), Real(k) / 3, Real(-k)}))
            << "k=" << k;
      }
    }
  });
  EXPECT_GT(faults.counters().corruptions, 0);
  EXPECT_GT(world.reliability_totals().corrupt_detected, 0);
}

TEST(ReliableExchange, BlackholeRaisesTypedTimeoutNotHang) {
  MpiLite world(2);
  FaultSpec faults(7);
  faults.blackholes.push_back({0, 1, -1});
  world.set_fault_spec(&faults);
  world.set_reliability({2.0, 3, 1.0, 1.0});
  EXPECT_THROW(world.run([](Comm& comm) {
                 if (comm.rank() == 0) comm.send(1, netsim::kTest4, Payload{Real(1)});
                 if (comm.rank() == 1) comm.recv(0, netsim::kTest4);
               }),
               netsim::CommTimeout);
  EXPECT_TRUE(world.aborted());
  EXPECT_GT(world.reliability_totals().timeouts, 0);

  // A dead world refuses to run until reset(); after reset it is whole.
  EXPECT_THROW(world.run([](Comm&) {}), Error);
  world.reset();
  world.set_fault_spec(nullptr);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, netsim::kTest4, Payload{Real(5)});
    if (comm.rank() == 1) {
      EXPECT_FLOAT_EQ(comm.recv(0, netsim::kTest4)[0], Real(5));
    }
  });
  EXPECT_FALSE(world.aborted());
}

TEST(ReliableExchange, FaultyParallelRunMatchesFaultFreeBitExact) {
  // The protocol must make an adversarial network *transparent*: same
  // seed twice -> identical fault schedule and identical results, and
  // both equal to the run on a perfect network.
  const Int3 dim{16, 16, 8};
  const Lattice init = make_global(dim);
  const int steps = 5;

  ParallelConfig clean;
  clean.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  ParallelLbm ref(init, clean);
  ref.run(steps);
  const std::vector<Real> want = gathered_values(ref, dim, init);

  auto faulty_run = [&](FaultSpec& faults, netsim::FaultCounters& out) {
    ParallelConfig cfg = clean;
    cfg.faults = &faults;
    cfg.reliability = {10.0, 60, 1.3, 6.0};
    ParallelLbm sim(init, cfg);
    sim.run(steps);
    out = faults.counters();
    return gathered_values(sim, dim, init);
  };

  FaultSpec fa(77), fb(77);
  fa.rates = fb.rates = {0.05, 0.05, 0.05, 0.05};
  netsim::FaultCounters ca, cb;
  const std::vector<Real> got_a = faulty_run(fa, ca);
  const std::vector<Real> got_b = faulty_run(fb, cb);

  const i64 fired = ca.drops + ca.duplicates + ca.delays + ca.corruptions;
  EXPECT_GT(fired, 0) << "the fault rates never fired; test is vacuous";
  expect_counters_eq(ca, cb);
  EXPECT_EQ(got_a, got_b);
  EXPECT_EQ(got_a, want);
}

// ---------------------------------------------------------------------------
// EnvelopeFuzz: hostile networks against the envelope that carries every
// MpiLite message. Each seed draws a communication program (2-5 ranks,
// 1-3 test tags, 1-3 rounds of 0-2 messages per channel, 0-300 values per
// payload, a mix of send/isend and recv/irecv+wait/wait_all) and a
// FaultSpec (drop, duplicate, delay and corrupt rates below 0.3, and on
// some seeds a blackhole on a channel that carries traffic). Every
// mutation comes from the FaultSpec.

/// The `index`-th message on channel (src, dst, tag), sent in `round`.
struct FuzzMsg {
  int round, src, dst, tag, index;
};

struct FuzzCase {
  u64 seed = 0;
  int ranks = 2;
  int rounds = 1;
  /// Each channel's messages in index order.
  std::vector<FuzzMsg> msgs;
  netsim::MessageFaultRates rates;
  std::optional<netsim::ChannelBlackhole> hole;
};

FuzzCase draw_fuzz_case(u64 seed) {
  static const int kTags[] = {netsim::kTest0, netsim::kTest1, netsim::kTest2,
                              netsim::kTest3, netsim::kTest4, netsim::kTest5,
                              netsim::kTest7, netsim::kTest9};
  Rng rng(seed * 6151 + 29);
  FuzzCase c;
  c.seed = seed;
  c.ranks = static_cast<int>(rng.uniform_int(2, 5));
  c.rounds = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<int> tags;
  const auto num_tags = static_cast<std::size_t>(rng.uniform_int(1, 3));
  while (tags.size() < num_tags) {
    const int t = kTags[rng.uniform_int(0, 7)];
    if (std::find(tags.begin(), tags.end(), t) == tags.end()) {
      tags.push_back(t);
    }
  }
  std::map<std::tuple<int, int, int>, int> sent;
  for (int r = 0; r < c.rounds; ++r) {
    for (int src = 0; src < c.ranks; ++src) {
      for (int dst = 0; dst < c.ranks; ++dst) {
        if (src == dst) continue;
        for (const int tag : tags) {
          for (i64 k = rng.uniform_int(0, 2); k > 0; --k) {
            c.msgs.push_back({r, src, dst, tag, sent[{src, dst, tag}]++});
          }
        }
      }
    }
  }
  c.rates = {rng.uniform(0, 0.3), rng.uniform(0, 0.3), rng.uniform(0, 0.3),
             rng.uniform(0, 0.3)};
  if (!c.msgs.empty() && rng.chance(0.2)) {
    const FuzzMsg& m = c.msgs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<i64>(c.msgs.size()) - 1))];
    c.hole = netsim::ChannelBlackhole{m.src, m.dst, m.tag};
  }
  return c;
}

/// Message `m`'s payload: 0-300 values of arbitrary finite bit patterns
/// (zeros, denormals, extremes), so deliveries are compared as bits.
Payload fuzz_payload(u64 seed, const FuzzMsg& m) {
  Rng rng((((seed * 31 + static_cast<u64>(m.src)) * 31 +
            static_cast<u64>(m.dst)) * 16411 + static_cast<u64>(m.tag)) *
              4099 + static_cast<u64>(m.index));
  Payload p(static_cast<std::size_t>(rng.uniform_int(0, 300)));
  static_assert(sizeof(Real) == sizeof(u32));
  for (Real& v : p) {
    auto bits = static_cast<u32>(rng.next_u64());
    if (((bits >> 23) & 0xFFu) == 0xFFu) bits &= ~(1u << 30);  // no Inf/NaN
    std::memcpy(&v, &bits, sizeof v);
  }
  return p;
}

/// `me`'s messages of `round` (sent when `sending`, else received) in a
/// seeded interleaving of their channels that keeps each channel's order.
std::vector<FuzzMsg> interleave(const FuzzCase& c, int round, int me,
                                bool sending, Rng& rng) {
  std::map<std::pair<int, int>, std::deque<FuzzMsg>> channels;
  for (const FuzzMsg& m : c.msgs) {
    if (m.round != round || (sending ? m.src : m.dst) != me) continue;
    channels[{sending ? m.dst : m.src, m.tag}].push_back(m);
  }
  std::vector<FuzzMsg> out;
  while (!channels.empty()) {
    auto it = std::next(channels.begin(),
                        rng.uniform_int(0, static_cast<i64>(channels.size()) - 1));
    out.push_back(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) channels.erase(it);
  }
  return out;
}

enum class FuzzOutcome { Delivered, TimedOut, Aborted };

struct FuzzResult {
  FuzzOutcome outcome = FuzzOutcome::Delivered;
  double wall_ms = 0;
  i64 received = 0;    ///< payloads handed to the program
  i64 mismatched = 0;  ///< of those, not the sender's bits in channel order
  netsim::ReliabilityStats rel;
  netsim::FaultCounters fired;
};

FuzzResult run_fuzz_case(const FuzzCase& c) {
  MpiLite world(c.ranks);
  FaultSpec faults(c.seed);
  faults.rates = c.rates;
  if (c.hole) faults.blackholes.push_back(*c.hole);
  world.set_fault_spec(&faults);
  netsim::ReliabilityConfig rel;  // default backoff
  rel.recv_timeout_ms = 2;
  rel.max_retries = 6;
  world.set_reliability(rel);

  std::atomic<i64> received{0}, mismatched{0};
  FuzzResult res;
  Timer t;
  try {
    world.run([&c, &received, &mismatched](Comm& comm) {
      const int me = comm.rank();
      Rng rng(c.seed * 977 + static_cast<u64>(me));
      const auto check = [&c, &received, &mismatched](const FuzzMsg& m,
                                                      const Payload& got) {
        const Payload want = fuzz_payload(c.seed, m);
        received.fetch_add(1);
        if (got.size() != want.size() ||
            (!got.empty() && std::memcmp(got.data(), want.data(),
                                         got.size() * sizeof(Real)) != 0)) {
          mismatched.fetch_add(1);
        }
      };
      for (int round = 0; round < c.rounds; ++round) {
        for (const FuzzMsg& m : interleave(c, round, me, true, rng)) {
          if (rng.chance(0.5)) {
            comm.send(m.dst, m.tag, fuzz_payload(c.seed, m));
          } else {
            comm.isend(m.dst, m.tag, fuzz_payload(c.seed, m));
          }
        }
        const std::vector<FuzzMsg> in = interleave(c, round, me, false, rng);
        const i64 mode = rng.uniform_int(0, 2);
        if (mode == 0) {
          for (const FuzzMsg& m : in) check(m, comm.recv(m.src, m.tag));
          continue;
        }
        std::vector<Request> rs;
        for (const FuzzMsg& m : in) rs.push_back(comm.irecv(m.src, m.tag));
        std::vector<std::size_t> order(in.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (mode == 1) {
          comm.wait_all(rs);
        } else {
          // Shuffled waits: a late handle completes the older ones on
          // its channel first.
          for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1],
                      order[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<i64>(i) - 1))]);
          }
        }
        for (const std::size_t i : order) check(in[i], comm.wait(rs[i]));
      }
    });
  } catch (const netsim::CommTimeout&) {
    res.outcome = FuzzOutcome::TimedOut;
  } catch (const netsim::CommAborted&) {
    res.outcome = FuzzOutcome::Aborted;
  }
  res.wall_ms = t.millis();
  res.received = received.load();
  res.mismatched = mismatched.load();
  res.rel = world.reliability_totals();
  res.fired = faults.counters();
  return res;
}

TEST(EnvelopeFuzz, DeliversBitExactInOrderOrFailsTyped) {
  // A run either hands every payload to the program bit-exact in channel
  // order, or ends in CommTimeout / CommAborted — never a wrong payload
  // and never a hang. Wall bound per run: 1 s plus 70 ms per message, the
  // full 2 ms x (1 + 6) receive budget with the default 1.5x backoff
  // (~64 ms) rounded up. A blackholed channel that carries traffic can
  // never deliver, so that run must end in CommTimeout.
  const int seeds = 200;
  int delivered = 0, holed = 0;
  netsim::FaultCounters fired;  // in delivered runs
  netsim::ReliabilityStats repaired;
  for (int seed = 0; seed < seeds; ++seed) {
    const FuzzCase c = draw_fuzz_case(static_cast<u64>(seed));
    const FuzzResult r = run_fuzz_case(c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(r.mismatched, 0);
    EXPECT_LE(r.wall_ms, 1000.0 + 70.0 * static_cast<double>(c.msgs.size()));
    if (c.hole) {
      ++holed;
      EXPECT_EQ(r.outcome, FuzzOutcome::TimedOut);
    } else if (r.outcome == FuzzOutcome::Delivered) {
      ++delivered;
      EXPECT_EQ(r.received, static_cast<i64>(c.msgs.size()));
      fired.drops += r.fired.drops;
      fired.duplicates += r.fired.duplicates;
      fired.delays += r.fired.delays;
      fired.corruptions += r.fired.corruptions;
      repaired.retransmits += r.rel.retransmits;
      repaired.corrupt_detected += r.rel.corrupt_detected;
      repaired.duplicates_dropped += r.rel.duplicates_dropped;
    }
  }
  // Not vacuous: both kinds of seed occurred, and runs that every fault
  // kind hit were repaired to full delivery (timeouts may end a run on a
  // loaded host, so no share of deliveries is required).
  EXPECT_GT(holed, 0);
  EXPECT_GT(delivered, 0);
  EXPECT_GT(fired.drops, 0);
  EXPECT_GT(fired.duplicates, 0);
  EXPECT_GT(fired.delays, 0);
  EXPECT_GT(fired.corruptions, 0);
  EXPECT_GT(repaired.retransmits, 0);
  EXPECT_GT(repaired.corrupt_detected, 0);
  EXPECT_GT(repaired.duplicates_dropped, 0);
}

TEST(EnvelopeFuzz, HealthyNetworkArmsNoTimer) {
  // Without a FaultSpec no message can be lost, so a receive waits
  // untimed: a sender 200 ms late outlives the 5 ms x 1 budget many times
  // over, and the message still arrives with no timeout counted.
  MpiLite world(2);
  netsim::ReliabilityConfig rel;
  rel.recv_timeout_ms = 5;
  rel.max_retries = 1;
  world.set_reliability(rel);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      comm.send(1, netsim::kTest0, Payload{Real(42)});
    } else {
      EXPECT_EQ(comm.recv(0, netsim::kTest0), Payload{Real(42)});
    }
  });
  EXPECT_EQ(world.reliability_totals().timeouts, 0);
  EXPECT_FALSE(world.aborted());
}

// ---------------------------------------------------------------------------
// Sentinel: divergence detection in the serial and distributed solvers.

TEST(Sentinel, SolverDetectsNaN) {
  lbm::SolverConfig cfg;
  cfg.sentinel = lbm::SentinelThresholds{};
  lbm::Solver solver(Int3{8, 8, 8}, cfg);
  solver.lattice().init_equilibrium(Real(1), Vec3{});
  solver.lattice().set_f(0, solver.lattice().idx(4, 4, 4),
                         std::numeric_limits<Real>::quiet_NaN());
  try {
    solver.run(3);
    FAIL() << "sentinel missed the NaN";
  } catch (const lbm::DivergenceError& e) {
    EXPECT_TRUE(e.report().non_finite);
    EXPECT_EQ(e.step(), 1);
  }
}

TEST(Sentinel, SolverDetectsDensityBlowup) {
  lbm::SolverConfig cfg;
  cfg.sentinel = lbm::SentinelThresholds{Real(0.5), Real(2.0), 1};
  lbm::Solver solver(Int3{8, 8, 8}, cfg);
  solver.lattice().init_equilibrium(Real(1), Vec3{});
  for (int i = 0; i < lbm::Q; ++i) {
    solver.lattice().set_f(i, solver.lattice().idx(3, 3, 3), Real(1));
  }
  try {
    solver.run(3);
    FAIL() << "sentinel missed the density blow-up";
  } catch (const lbm::DivergenceError& e) {
    EXPECT_FALSE(e.report().non_finite);
    EXPECT_GT(e.report().rho, Real(2.0));
  }
}

TEST(Sentinel, HealthyRunsPassUnderSentinel) {
  lbm::SolverConfig scfg;
  scfg.sentinel = lbm::SentinelThresholds{};
  lbm::Solver solver(Int3{8, 8, 8}, scfg);
  solver.lattice().init_equilibrium(Real(1), Vec3{0.02f, 0, 0});
  EXPECT_NO_THROW(solver.run(5));

  const Int3 dim{16, 16, 8};
  const Lattice init = make_global(dim);
  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  cfg.sentinel = lbm::SentinelThresholds{};
  ParallelLbm sim(init, cfg);
  EXPECT_NO_THROW(sim.run(4));
}

TEST(Sentinel, ParallelSentinelReportsFailingRank) {
  const Int3 dim{16, 16, 8};
  const Lattice init = make_global(dim);
  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  cfg.sentinel = lbm::SentinelThresholds{};
  ParallelLbm sim(init, cfg);
  sim.run(1);

  // Corrupt rank 1's local state through the checkpoint clone path (the
  // locals themselves are owned by the simulation).
  TempPath dir("sentinel_inject");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/local.gclb";
  io::save_checkpoint(path, sim.local(1));
  Lattice bad = io::load_checkpoint(path);
  bad.set_f(0, bad.idx(2, 2, 5), std::numeric_limits<Real>::quiet_NaN());
  sim.restore_local(1, bad);

  try {
    sim.run(1);
    FAIL() << "sentinel missed the injected NaN";
  } catch (const lbm::DivergenceError& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_TRUE(e.report().non_finite);
  }
}

// ---------------------------------------------------------------------------
// Recovery: distributed checkpoints and the rollback driver.

TEST(Recovery, ClusterCheckpointRoundTripBitIdentical) {
  const Int3 dim{16, 16, 8};
  const Lattice init = make_global(dim);
  TempPath dir("ckpt_roundtrip");

  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  ParallelLbm a(init, cfg);
  a.run(3);
  core::save_cluster_checkpoint(dir.path(), a);
  a.run(2);

  ParallelLbm b(init, cfg);
  EXPECT_EQ(core::load_cluster_checkpoint(dir.path(), b), 3);
  EXPECT_EQ(b.current_step(), 3);
  b.run(2);

  EXPECT_EQ(gathered_values(a, dim, init), gathered_values(b, dim, init));
}

TEST(Recovery, ManifestRejectsMismatchedSimulation) {
  const Int3 dim{16, 16, 8};
  const Lattice init = make_global(dim);
  TempPath dir("ckpt_mismatch");

  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  ParallelLbm a(init, cfg);
  core::save_cluster_checkpoint(dir.path(), a);

  ParallelConfig other = cfg;
  other.grid = netsim::NodeGrid{Int3{4, 1, 1}};
  ParallelLbm b(init, other);
  EXPECT_THROW(core::load_cluster_checkpoint(dir.path(), b), Error);
}

TEST(Recovery, RecoversFromCrashDropsAndCorruptionBitExact) {
  // The acceptance run: a 2x2x1 cluster under message drops, payload
  // corruption and a rank crash must finish with results bit-identical
  // to a run on perfect hardware.
  const Int3 dim{16, 16, 8};
  const Lattice init = make_global(dim);
  const int steps = 12;

  ParallelConfig clean;
  clean.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  ParallelLbm ref(init, clean);
  ref.run(steps);
  const std::vector<Real> want = gathered_values(ref, dim, init);

  FaultSpec faults(2024);
  faults.rates.drop = 0.08;
  faults.rates.corrupt = 0.08;
  faults.crashes.push_back({1, 5});

  obs::TraceRecorder rec;
  ParallelConfig cfg = clean;
  cfg.faults = &faults;
  cfg.reliability = {10.0, 60, 1.3, 6.0};
  cfg.sentinel = lbm::SentinelThresholds{};
  cfg.trace = &rec;

  TempPath dir("ckpt_recovery");
  ParallelLbm sim(init, cfg);
  RecoveryConfig rc;
  rc.dir = dir.path();
  rc.checkpoint_every = 4;
  rc.trace = &rec;
  RecoveryDriver driver(sim, rc);
  const RecoveryReport report = driver.run(steps);

  EXPECT_EQ(sim.current_step(), steps);
  EXPECT_EQ(report.steps, steps);
  EXPECT_GE(report.rollbacks, 1);
  EXPECT_GE(report.checkpoints, 3);
  EXPECT_EQ(report.events.size(), static_cast<std::size_t>(report.rollbacks));

  const netsim::FaultCounters fc = faults.counters();
  EXPECT_EQ(fc.crashes, 1);
  EXPECT_GE(fc.drops, 1);
  EXPECT_GE(fc.corruptions, 1);

  // Everything flowed into the trace: protocol counters, rollback and
  // checkpoint events, recovery latency.
  EXPECT_EQ(rec.counter("ft.crashes"), 1);
  EXPECT_EQ(rec.counter("ft.rollbacks"), report.rollbacks);
  EXPECT_EQ(rec.counter("ft.checkpoints"), report.checkpoints);
  EXPECT_GT(rec.counter("ft.retransmits"), 0);
  EXPECT_GT(rec.counter("ft.corrupt_detected"), 0);

  EXPECT_EQ(gathered_values(sim, dim, init), want);
}

TEST(Recovery, RethrowsOncePastMaxRollbacks) {
  const Int3 dim{8, 6, 6};
  const Lattice init = make_global(dim);

  FaultSpec faults(1);
  faults.blackholes.push_back({-1, -1, -1});  // nothing ever arrives

  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 1, 1}};
  cfg.faults = &faults;
  cfg.reliability = {2.0, 2, 1.0, 1.0};

  TempPath dir("ckpt_giveup");
  ParallelLbm sim(init, cfg);
  RecoveryConfig rc;
  rc.dir = dir.path();
  rc.checkpoint_every = 2;
  rc.max_rollbacks = 1;
  RecoveryDriver driver(sim, rc);
  EXPECT_THROW(driver.run(4), netsim::CommError);
  EXPECT_EQ(sim.current_step(), 0);  // never made progress
}

}  // namespace
}  // namespace gc
