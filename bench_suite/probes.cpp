#include "probes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <memory>
#include <string>

#include "util/timer.hpp"

namespace gc::bench {

namespace {

/// Arrays stop growing here so the probe stays within 1.5 GiB on hosts
/// that report a very large shared LLC; three such arrays still dwarf it.
constexpr i64 kTriadCapBytes = i64(512) << 20;
constexpr i64 kTriadMinBytes = i64(64) << 20;

/// "307200K" / "32M" / "1024" -> bytes; 0 when unparsable.
i64 parse_size(const std::string& text) {
  std::size_t k = 0;
  i64 v = 0;
  while (k < text.size() && std::isdigit(static_cast<unsigned char>(text[k]))) {
    v = v * 10 + (text[k] - '0');
    ++k;
  }
  if (k == 0) return 0;
  if (k < text.size() && (text[k] == 'K' || text[k] == 'k')) return v << 10;
  if (k < text.size() && (text[k] == 'M' || text[k] == 'm')) return v << 20;
  if (k < text.size() && (text[k] == 'G' || text[k] == 'g')) return v << 30;
  return v;
}

}  // namespace

int nproc() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

i64 llc_bytes() {
  int best_level = -1;
  i64 best = 0;
  for (int idx = 0; idx < 16; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream level_in(dir + "level"), size_in(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size)) continue;
    if (level > best_level) {
      best_level = level;
      best = parse_size(size);
    }
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

TriadResult triad_probe(ThreadPool& pool) {
  TriadResult r;
  r.wanted_bytes = std::max<i64>(4 * llc_bytes(), kTriadMinBytes);
  r.array_bytes = std::min(r.wanted_bytes, kTriadCapBytes);
  const i64 n = r.array_bytes / static_cast<i64>(sizeof(double));
  std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> b(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> c(new double[static_cast<std::size_t>(n)]);
  // First touch on the pool, so pages land where the triad threads run.
  pool.parallel_for_chunks(0, n, [&](i64 lo, i64 hi) {
    for (i64 i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best_s = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    pool.parallel_for_chunks(0, n, [&](i64 lo, i64 hi) {
      double* GC_RESTRICT pa = a.get();
      const double* GC_RESTRICT pb = b.get();
      const double* GC_RESTRICT pc = c.get();
      for (i64 i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    best_s = std::min(best_s, t.seconds());
  }
  GC_CHECK_MSG(a[static_cast<std::size_t>(n - 1)] == 7.0,
               "triad probe produced a wrong value");
  r.gbps = 3.0 * static_cast<double>(r.array_bytes) / best_s / 1e9;
  return r;
}

}  // namespace gc::bench
