// Observability subsystem: span nesting/balance, counter aggregation
// across MpiLite ranks, Chrome-trace JSON round-tripping, the unified
// RunStats surface of Solver::run / ParallelLbm::run, the measured-vs-
// analytic traffic agreement, a guard that an absent recorder adds
// zero allocations to the Solver::step hot path, and seeded structured
// mutations of real traces, each of which must parse or throw gc::Error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/overlap.hpp"
#include "core/parallel_lbm.hpp"
#include "lbm/solver.hpp"
#include "netsim/mpilite.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "alloc_probe.hpp"
#include "temp_path.hpp"

namespace gc {
namespace {

using lbm::FaceBc;
using lbm::Lattice;

TEST(Obs, SpansNestAndBalance) {
  obs::TraceRecorder rec;
  {
    obs::ScopedSpan outer(&rec, "outer", 2, "test");
    {
      obs::ScopedSpan inner(&rec, "inner", 2, "test");
    }
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on close, so the inner span lands first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].rank, 2);
  // Nesting: the inner interval is contained in the outer one.
  EXPECT_GE(events[0].t0_us, events[1].t0_us);
  EXPECT_LE(events[0].t1_us, events[1].t1_us);
  for (const obs::TraceEvent& e : events) {
    EXPECT_LE(e.t0_us, e.t1_us);
  }
}

TEST(Obs, DisabledOrNullRecorderRecordsNothing) {
  obs::TraceRecorder rec;
  rec.set_enabled(false);
  {
    obs::ScopedSpan span(&rec, "ghost", 0);
    obs::ScopedSpan null_span(nullptr, "ghost", 0);
  }
  EXPECT_EQ(rec.num_events(), 0u);
}

TEST(Obs, PhaseTotalsAggregateByName) {
  obs::TraceRecorder rec;
  rec.record_span("collide", "lbm", 0, 0, 1000);
  rec.record_span("collide", "lbm", 1, 0, 2000);
  rec.record_span("stream", "lbm", 0, 1000, 1500);
  const auto totals = rec.phase_totals();
  ASSERT_EQ(totals.size(), 2u);  // sorted by name
  EXPECT_EQ(totals[0].name, "collide");
  EXPECT_EQ(totals[0].count, 2);
  EXPECT_NEAR(totals[0].total_ms, 3.0, 1e-9);
  EXPECT_EQ(totals[1].name, "stream");
  EXPECT_NEAR(totals[1].total_ms, 0.5, 1e-9);

  // The `from` snapshot restricts aggregation to later events.
  const auto tail = rec.phase_totals(2);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].name, "stream");
}

TEST(Obs, CountersAggregateAcrossMpiLiteRanks) {
  // Each rank sends rank+1 messages of 3 values to the next rank; the
  // per-rank counters must add up to the totals.
  const int n = 4;
  netsim::MpiLite world(n);
  world.run([n](netsim::Comm& comm) {
    const int r = comm.rank();
    for (int m = 0; m <= r; ++m) {
      comm.send((r + 1) % n, netsim::kTest7, netsim::Payload(3, Real(r)));
    }
    const int prev = (r + n - 1) % n;
    for (int m = 0; m <= prev; ++m) comm.recv(prev, netsim::kTest7);
  });

  obs::TraceRecorder rec;
  i64 messages = 0;
  for (int r = 0; r < n; ++r) {
    const netsim::RankTraffic t = world.rank_traffic(r);
    EXPECT_EQ(t.messages, r + 1);
    EXPECT_EQ(t.payload_values, 3 * (r + 1));
    messages += t.messages;
    rec.add_counter("mpi.messages", r, t.messages);
  }
  EXPECT_EQ(messages, world.total_messages());
  // Recorder-side aggregation: per-rank lookups and the cross-rank sum.
  EXPECT_EQ(rec.counter("mpi.messages", 2), 3);
  EXPECT_EQ(rec.counter("mpi.messages"), messages);
  EXPECT_EQ(rec.counter("mpi.bytes"), 0);
}

TEST(Obs, ChromeTraceJsonRoundTrips) {
  obs::TraceRecorder rec;
  rec.record_span("collide", "lbm", 0, 10.5, 20.25);
  rec.record_span("exchange \"x\"", "net", 3, 20.25, 30.0);
  rec.add_counter("mpi.bytes", 1, 4096);
  rec.set_gauge("model.makespan_ms", 0, 12.5);

  const std::string json = obs::chrome_trace_json(rec);
  const obs::ParsedTrace parsed = obs::parse_chrome_trace(json);
  ASSERT_EQ(parsed.spans.size(), 2u);
  EXPECT_EQ(parsed.spans[0].name, "collide");
  EXPECT_EQ(parsed.spans[0].cat, "lbm");
  EXPECT_EQ(parsed.spans[0].rank, 0);
  EXPECT_NEAR(parsed.spans[0].t0_us, 10.5, 1e-3);
  EXPECT_NEAR(parsed.spans[0].t1_us, 20.25, 1e-3);
  EXPECT_EQ(parsed.spans[1].name, "exchange \"x\"");
  EXPECT_EQ(parsed.spans[1].rank, 3);
  ASSERT_EQ(parsed.counters.size(), 2u);
  EXPECT_EQ(parsed.counters[0].name, "mpi.bytes");
  EXPECT_EQ(parsed.counters[0].rank, 1);
  EXPECT_NEAR(parsed.counters[0].value, 4096, 1e-9);
  EXPECT_NEAR(parsed.counters[1].value, 12.5, 1e-3);

  EXPECT_THROW(obs::parse_chrome_trace("{\"traceEvents\":"), Error);
  EXPECT_THROW(obs::parse_chrome_trace("[1,2]"), Error);
}

TEST(Obs, TraceTableHasRowPerSpanAndCounter) {
  obs::TraceRecorder rec;
  rec.record_span("stream", "lbm", 0, 0, 500);
  rec.add_counter("mpi.messages", 0, 2);
  rec.set_gauge("g", 1, 0.5);
  const Table t = obs::trace_table(rec);
  EXPECT_EQ(t.num_rows(), 3u);
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("kind"), std::string::npos);
  EXPECT_NE(csv.find("span"), std::string::npos);
  EXPECT_NE(csv.find("counter"), std::string::npos);
  EXPECT_NE(csv.find("gauge"), std::string::npos);
}

lbm::Lattice make_flow_lattice(Int3 dim) {
  lbm::Lattice lat(dim);
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_YMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_YMAX, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::FreeSlip);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  lat.init_equilibrium(Real(1), Vec3{0.05f, 0, 0});
  return lat;
}

TEST(Obs, SolverRunReturnsPhaseTotals) {
  obs::TraceRecorder rec;
  lbm::SolverConfig cfg;
  cfg.trace = &rec;
  lbm::Solver solver(Int3{12, 10, 8}, cfg);
  solver.lattice().init_equilibrium(Real(1), Vec3{0.02f, 0, 0});

  const obs::RunStats rs = solver.run(3);
  EXPECT_EQ(rs.steps, 3);
  EXPECT_GT(rs.wall_ms, 0.0);
  EXPECT_EQ(rs.phase_count("collide"), 3);
  EXPECT_EQ(rs.phase_count("stream"), 3);
  EXPECT_EQ(rs.phase_count("finish"), 3);
  EXPECT_GT(rs.phase_ms("collide"), 0.0);
  // Phases are a decomposition of the run, not more than the wall time.
  EXPECT_LE(rs.phase_ms("collide") + rs.phase_ms("stream"), rs.wall_ms * 1.5);
  EXPECT_EQ(rec.counter("solver.steps"), 3);

  // A second run only aggregates its own steps.
  const obs::RunStats rs2 = solver.run(2);
  EXPECT_EQ(rs2.phase_count("collide"), 2);
}

TEST(Obs, SolverFusedRunEmitsFusedSpans) {
  obs::TraceRecorder rec;
  lbm::SolverConfig cfg;
  cfg.fused = true;
  cfg.trace = &rec;
  lbm::Solver solver(Int3{12, 10, 8}, cfg);
  solver.lattice().init_equilibrium(Real(1), Vec3{0.02f, 0, 0});
  const obs::RunStats rs = solver.run(2);
  EXPECT_EQ(rs.phase_count("fused"), 2);
  EXPECT_EQ(rs.phase_count("stream"), 0);
}

TEST(Obs, ParallelRunEmitsPerRankSpansAndCounters) {
  // The acceptance scenario: one ParallelLbm::run on a 2x2x1 grid emits a
  // Chrome trace with per-rank collide/exchange/stream spans plus MpiLite
  // byte counters.
  Lattice lat = make_flow_lattice(Int3{16, 16, 8});
  obs::TraceRecorder rec;
  core::ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  cfg.trace = &rec;
  core::ParallelLbm par(lat, cfg);
  const obs::RunStats rs = par.run(2);
  EXPECT_EQ(rs.steps, 2);
  EXPECT_GT(rs.wall_ms, 0.0);
  // 4 ranks x 2 steps of collide/stream; exchange spans per schedule step.
  EXPECT_EQ(rs.phase_count("collide"), 8);
  EXPECT_EQ(rs.phase_count("stream"), 8);
  EXPECT_EQ(rs.phase_count("exchange"),
            8 * static_cast<i64>(par.schedule().steps.size()));
  EXPECT_GT(rs.phase_count("pack"), 0);
  EXPECT_GT(rs.phase_count("unpack"), 0);

  const std::string json = obs::chrome_trace_json(rec);
  const obs::ParsedTrace parsed = obs::parse_chrome_trace(json);
  for (int rank = 0; rank < 4; ++rank) {
    for (const char* phase : {"collide", "exchange", "stream"}) {
      bool found = false;
      for (const obs::TraceEvent& e : parsed.spans) {
        if (e.rank == rank && e.name == phase) found = true;
      }
      EXPECT_TRUE(found) << "missing span " << phase << " for rank " << rank;
    }
    EXPECT_GT(rec.counter("mpi.bytes", rank), 0) << "rank " << rank;
    EXPECT_GT(rec.counter("mpi.messages", rank), 0) << "rank " << rank;
  }
  // The byte counters cover exactly the payloads MpiLite moved.
  EXPECT_EQ(rec.counter("mpi.bytes"),
            par.total_payload_values() * static_cast<i64>(sizeof(Real)));
  bool counter_in_trace = false;
  for (const obs::GaugeSample& c : parsed.counters) {
    if (c.name == "mpi.bytes") counter_in_trace = true;
  }
  EXPECT_TRUE(counter_in_trace);
}

TEST(Obs, MeasuredTrafficMatchesAnalyticPerScheduleStep) {
  // The satellite alignment: the analytic (ClusterSimulator) and measured
  // (ParallelLbm) traffic accountings agree entry-by-entry on 2x2x1.
  Lattice lat = make_flow_lattice(Int3{16, 16, 8});
  core::ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  core::ParallelLbm par(lat, cfg);

  const netsim::TrafficMatrix measured = par.traffic_bytes_per_step();
  const netsim::TrafficMatrix analytic =
      core::ClusterSimulator::traffic_bytes_per_step(
          par.decomposition(), par.schedule(), /*indirect_diagonals=*/true);
  ASSERT_EQ(measured.size(), analytic.size());
  for (std::size_t k = 0; k < measured.size(); ++k) {
    ASSERT_EQ(measured[k].size(), analytic[k].size()) << "step " << k;
    for (std::size_t p = 0; p < measured[k].size(); ++p) {
      EXPECT_EQ(measured[k][p], analytic[k][p])
          << "schedule step " << k << " pair " << p;
    }
  }
}

TEST(Obs, OverlapTimelineExportsToTrace) {
  core::ClusterScenario sc;
  sc.grid = netsim::NodeGrid::arrange_2d(8);
  sc.lattice = Int3{80 * sc.grid.dims.x, 80 * sc.grid.dims.y, 80};
  const core::OverlapTimeline tl = core::simulate_overlapped_step(sc);

  obs::TraceRecorder rec;
  tl.export_trace(rec, 0);
  ASSERT_EQ(rec.events().size(), tl.tasks.size());
  const obs::ParsedTrace parsed =
      obs::parse_chrome_trace(obs::chrome_trace_json(rec));
  // Modeled tasks export under the canonical overlap.* span names the
  // executed overlap engine shares, with cat "overlap".
  const obs::TraceEvent* net = nullptr;
  for (const obs::TraceEvent& e : parsed.spans) {
    if (e.name == "overlap.wait") net = &e;
    EXPECT_EQ(e.cat, "overlap") << e.name;
    EXPECT_EQ(e.name.rfind("overlap.", 0), 0u) << e.name;
  }
  ASSERT_NE(net, nullptr);
  const core::TimelineTask* task = tl.find("network exchange");
  EXPECT_NEAR(net->t1_us - net->t0_us, task->duration_ms() * 1e3, 1.0);
  bool makespan = false;
  for (const obs::GaugeSample& g : parsed.counters) {
    if (g.name == "model.makespan_ms") makespan = true;
  }
  EXPECT_TRUE(makespan);
}

TEST(Obs, WriteChromeTraceProducesReadableFile) {
  obs::TraceRecorder rec;
  rec.record_span("collide", "lbm", 0, 0, 100);
  const test::TempPath file("gc_trace_test.json");
  const std::string& path = file.path();
  obs::write_chrome_trace(path, rec);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::ParsedTrace parsed = obs::parse_chrome_trace(ss.str());
  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].name, "collide");
}

TEST(Obs, NoRecorderAddsZeroAllocationsToSolverStep) {
  // The null-sink guarantee: stepping without a recorder must not touch
  // the allocator (the instrumentation sites are pointer tests only).
  lbm::SolverConfig cfg;
  cfg.fused = true;  // the production hot path
  lbm::Solver solver(Int3{16, 12, 8}, cfg);
  solver.lattice().init_equilibrium(Real(1), Vec3{0.02f, 0, 0});
  solver.step();  // warm up: builds the cell classification lazily
  solver.step();

  const long before = test::allocation_count();
  for (int s = 0; s < 10; ++s) solver.step();
  EXPECT_EQ(test::allocation_count(), before);
}

// --- hostile traces ----------------------------------------------------------

/// A real trace: spans on several ranks, a counter and a gauge.
std::string fuzz_trace() {
  obs::TraceRecorder rec;
  rec.record_span("collide", "lbm", 0, 10.5, 20.25);
  rec.record_span("overlap.wait", "overlap", 3, 20.25, 1.5e6);
  rec.record_span("exchange \"x\"", "net", 1, 30.0, 31.0);
  rec.add_counter("mpi.bytes", 1, 4096);
  rec.set_gauge("model.makespan_ms", 2, 12.5);
  return obs::chrome_trace_json(rec);
}

/// The trace split into JSON tokens: structural characters, strings,
/// number/literal runs and whitespace runs; concatenated they give back
/// the input.
std::vector<std::string> json_tokens(const std::string& s) {
  const auto structural = [](char c) {
    return std::strchr("{}[]:,\"", c) != nullptr ||
           std::isspace(static_cast<unsigned char>(c));
  };
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    std::size_t j = i + 1;
    if (s[i] == '"') {
      while (j < s.size() && s[j] != '"') j += s[j] == '\\' ? 2 : 1;
      j = std::min(j + 1, s.size());
    } else if (std::isspace(static_cast<unsigned char>(s[i]))) {
      while (j < s.size() && std::isspace(static_cast<unsigned char>(s[j]))) {
        ++j;
      }
    } else if (!structural(s[i])) {
      while (j < s.size() && !structural(s[j])) ++j;
    }
    out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) out += t;
  return out;
}

/// Parses `json`: success and gc::Error are both fine; any other exception
/// fails the test (and a crash fails the binary).
void expect_parse_or_error(const std::string& json, const std::string& what) {
  try {
    (void)obs::parse_chrome_trace(json);
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": non-gc exception: " << e.what();
  }
}

TEST(ChromeTraceFuzz, ByteFlipsParseOrThrowError) {
  const std::string json = fuzz_trace();
  Rng rng(1601);
  for (int k = 0; k < 4000; ++k) {
    std::string mutated = json;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<i64>(json.size()) - 1));
      mutated[at] = static_cast<char>(mutated[at] ^ rng.uniform_int(1, 255));
    }
    expect_parse_or_error(mutated, "flip " + std::to_string(k));
  }
}

TEST(ChromeTraceFuzz, EveryTruncationThrowsError) {
  // The root object closes at the last '}', so every prefix short of it
  // is incomplete and must be rejected; only trailing whitespace may go.
  const std::string json = fuzz_trace();
  const std::size_t complete = json.rfind('}') + 1;
  for (std::size_t len = 0; len < json.size(); ++len) {
    const std::string prefix = json.substr(0, len);
    if (len >= complete) {
      EXPECT_NO_THROW(obs::parse_chrome_trace(prefix)) << "length " << len;
    } else {
      EXPECT_THROW(obs::parse_chrome_trace(prefix), Error) << "length " << len;
    }
  }
}

TEST(ChromeTraceFuzz, DeletedAndDuplicatedTokensParseOrThrowError) {
  const std::string json = fuzz_trace();
  ASSERT_EQ(obs::parse_chrome_trace(json).spans.size(), 3u);
  const std::vector<std::string> tokens = json_tokens(json);
  ASSERT_EQ(join(tokens), json);
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    std::vector<std::string> deleted = tokens;
    deleted.erase(deleted.begin() + static_cast<std::ptrdiff_t>(t));
    expect_parse_or_error(join(deleted), "delete token " + std::to_string(t));
    std::vector<std::string> doubled = tokens;
    doubled.insert(doubled.begin() + static_cast<std::ptrdiff_t>(t), tokens[t]);
    expect_parse_or_error(join(doubled), "repeat token " + std::to_string(t));
  }
  // Several edits at once: deletions, repeats and tokens moved elsewhere.
  Rng rng(1602);
  for (int k = 0; k < 1000; ++k) {
    std::vector<std::string> mutated = tokens;
    const int edits = static_cast<int>(rng.uniform_int(2, 6));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const auto at = static_cast<std::ptrdiff_t>(
          rng.uniform_int(0, static_cast<i64>(mutated.size()) - 1));
      const std::string token = mutated[static_cast<std::size_t>(at)];
      if (rng.chance(0.5)) mutated.erase(mutated.begin() + at);
      const auto to = static_cast<std::ptrdiff_t>(
          rng.uniform_int(0, static_cast<i64>(mutated.size())));
      if (rng.chance(0.5)) mutated.insert(mutated.begin() + to, token);
    }
    expect_parse_or_error(join(mutated), "token edits " + std::to_string(k));
  }
}

TEST(ChromeTraceFuzz, MalformedOrOutOfRangeNumbersThrowError) {
  const std::vector<std::string> tokens = json_tokens(fuzz_trace());
  int numbers = 0;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const char c = tokens[t][0];
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '-') continue;
    ++numbers;
    for (const char* bad : {"-", "--1", "1e999", "-1e999", "nan", "-nan",
                            "inf", "1e", "1.5.2", "0x10", "+"}) {
      std::vector<std::string> mutated = tokens;
      mutated[t] = bad;
      EXPECT_THROW(obs::parse_chrome_trace(join(mutated)), Error)
          << "token " << t << " (" << tokens[t] << ") -> " << bad;
    }
  }
  EXPECT_GT(numbers, 10);
  // A finite number that does not fit a rank.
  for (const char* tid : {"1e300", "-3e9", "2147483648"}) {
    const std::string json =
        std::string("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"tid\":") +
        tid + ",\"ts\":0,\"dur\":1}]}";
    EXPECT_THROW(obs::parse_chrome_trace(json), Error) << tid;
  }
}

TEST(ChromeTraceFuzz, DeepNestingThrowsError) {
  constexpr std::size_t kDeep = 100000;
  const std::string open = "{\"traceEvents\":" + std::string(kDeep, '[');
  EXPECT_THROW(obs::parse_chrome_trace(open), Error);
  EXPECT_THROW(obs::parse_chrome_trace(open + std::string(kDeep, ']') + "}"),
               Error);
  std::string objects = "{\"traceEvents\":[],\"x\":";
  for (std::size_t k = 0; k < kDeep; ++k) objects += "{\"a\":";
  EXPECT_THROW(obs::parse_chrome_trace(objects), Error);
  // Shallow extra nesting beside the events is still a valid trace.
  EXPECT_NO_THROW(obs::parse_chrome_trace(
      "{\"traceEvents\":[],\"x\":[[[[{\"a\":[1]}]]]]}"));
}

}  // namespace
}  // namespace gc
