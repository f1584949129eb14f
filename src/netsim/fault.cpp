#include "netsim/fault.hpp"

namespace gc::netsim {

namespace {
/// splitmix64: full-period 64-bit mixer; the standard way to turn a
/// structured key into an independent uniform draw.
u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

u64 FaultSpec::draw(FaultKind kind, int src, int dst, int tag, u64 seq) const {
  u64 h = seed_;
  h = splitmix64(h ^ static_cast<u64>(kind));
  h = splitmix64(h ^ (static_cast<u64>(static_cast<u32>(src)) << 32 |
                      static_cast<u64>(static_cast<u32>(dst))));
  h = splitmix64(h ^ static_cast<u64>(static_cast<u32>(tag)));
  h = splitmix64(h ^ seq);
  return h;
}

bool FaultSpec::roll(FaultKind kind, int src, int dst, int tag, u64 seq) {
  double p = 0;
  switch (kind) {
    case FaultKind::Drop: p = rates.drop; break;
    case FaultKind::Duplicate: p = rates.duplicate; break;
    case FaultKind::Delay: p = rates.delay; break;
    case FaultKind::Corrupt: p = rates.corrupt; break;
  }
  if (p <= 0) return false;
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(draw(kind, src, dst, tag, seq) >> 11) *
                   0x1.0p-53;
  if (u >= p) return false;
  std::lock_guard<std::mutex> lock(mu_);
  switch (kind) {
    case FaultKind::Drop: ++counts_.drops; break;
    case FaultKind::Duplicate: ++counts_.duplicates; break;
    case FaultKind::Delay: ++counts_.delays; break;
    case FaultKind::Corrupt: ++counts_.corruptions; break;
  }
  return true;
}

bool FaultSpec::blackholed(int src, int dst, int tag) const {
  for (const ChannelBlackhole& b : blackholes) {
    if ((b.src < 0 || b.src == src) && (b.dst < 0 || b.dst == dst) &&
        (b.tag < 0 || b.tag == tag)) {
      return true;
    }
  }
  return false;
}

u64 FaultSpec::corrupt_bit(int src, int dst, int tag, u64 seq,
                           u64 num_bits) const {
  GC_CHECK(num_bits > 0);
  return splitmix64(draw(FaultKind::Corrupt, src, dst, tag, seq)) % num_bits;
}

bool FaultSpec::should_crash(int rank, i64 step) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_fired_.resize(crashes.size(), 0);
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    if (crash_fired_[i]) continue;
    if (crashes[i].rank == rank && step >= crashes[i].step) {
      crash_fired_[i] = 1;
      ++counts_.crashes;
      return true;
    }
  }
  return false;
}

FaultCounters FaultSpec::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

}  // namespace gc::netsim
