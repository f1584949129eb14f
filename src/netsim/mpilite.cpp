#include "netsim/mpilite.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>

#include "util/checksum.hpp"

namespace gc::netsim {

namespace {
u32 payload_crc(const Payload& p) {
  return crc32(p.data(), p.size() * sizeof(Real));
}
}  // namespace

int Comm::size() const { return world_->size(); }

void Comm::send(int dst, int tag, Payload data) {
  world_->do_send(rank_, dst, tag, std::move(data));
}

Payload Comm::recv(int src, int tag) {
  return world_->do_recv(src, rank_, tag);
}

Payload Comm::sendrecv(int partner, int tag, Payload data) {
  send(partner, tag, std::move(data));
  return recv(partner, tag);
}

Request Comm::isend(int dst, int tag, Payload data) {
  world_->do_send(rank_, dst, tag, std::move(data));
  auto st = std::make_shared<Request::State>();
  st->done = true;
  st->complete_us = world_->now_us();
  return Request(std::move(st));
}

Request Comm::irecv(int src, int tag) {
  GC_CHECK_MSG(src >= 0 && src < world_->size(),
               "irecv from invalid rank " << src);
  auto st = std::make_shared<Request::State>();
  st->peer = src;
  st->tag = tag;
  pending_[{src, tag}].push_back(st);
  return Request(std::move(st));
}

void Comm::complete(Request::State& st) {
  while (!st.done) {
    double t_us = 0.0;
    Payload p = world_->do_recv(st.peer, rank_, st.tag, &t_us);
    // The channel's next message belongs to its oldest outstanding irecv.
    auto& q = pending_[{st.peer, st.tag}];
    GC_CHECK(!q.empty());
    Request::State& oldest = *q.front();
    oldest.data = std::move(p);
    oldest.complete_us = t_us;
    oldest.done = true;
    q.pop_front();
  }
}

Payload Comm::wait(Request& r) {
  GC_CHECK_MSG(r.valid(), "wait on an invalid request");
  complete(*r.st_);
  return std::move(r.st_->data);
}

void Comm::wait_all(std::vector<Request>& rs) {
  for (Request& r : rs) {
    if (r.valid()) complete(*r.st_);
  }
}

double Comm::allreduce_sum(double value) {
  // The double travels as the bit pattern of two Reals.
  auto encode = [](double v) {
    Payload p(2);
    static_assert(sizeof(double) == 2 * sizeof(Real));
    std::memcpy(p.data(), &v, sizeof(double));
    return p;
  };
  auto decode = [](const Payload& p) {
    double v;
    GC_CHECK(p.size() == 2);
    std::memcpy(&v, p.data(), sizeof(double));
    return v;
  };

  const int n = size();
  if (n == 1) return value;
  if (rank() == 0) {
    double total = value;
    for (int r = 1; r < n; ++r) {
      total += decode(world_->do_recv(r, 0, kAllreduceGather));
    }
    for (int r = 1; r < n; ++r) {
      world_->do_send(0, r, kAllreduceBcast, encode(total));
    }
    return total;
  }
  world_->do_send(rank_, 0, kAllreduceGather, encode(value));
  return decode(world_->do_recv(0, rank_, kAllreduceBcast));
}

MpiLite::MpiLite(int ranks)
    : ranks_(ranks),
      rank_traffic_(static_cast<std::size_t>(ranks)),
      rel_stats_(static_cast<std::size_t>(ranks)) {
  GC_CHECK_MSG(ranks >= 1, "MpiLite needs at least one rank");
}

void MpiLite::set_fault_spec(FaultSpec* spec) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = spec;
}

void MpiLite::set_reliability(const ReliabilityConfig& cfg) {
  GC_CHECK_MSG(cfg.recv_timeout_ms > 0 && cfg.max_retries >= 1 &&
                   cfg.backoff >= 1 && cfg.max_backoff >= 1,
               "invalid reliability config");
  std::lock_guard<std::mutex> lock(mu_);
  rel_ = cfg;
}

RankTraffic MpiLite::rank_traffic(int rank) const {
  GC_CHECK_MSG(rank >= 0 && rank < ranks_, "invalid rank " << rank);
  std::lock_guard<std::mutex> lock(mu_);
  return rank_traffic_[static_cast<std::size_t>(rank)];
}

ReliabilityStats MpiLite::reliability_stats(int rank) const {
  GC_CHECK_MSG(rank >= 0 && rank < ranks_, "invalid rank " << rank);
  std::lock_guard<std::mutex> lock(mu_);
  return rel_stats_[static_cast<std::size_t>(rank)];
}

ReliabilityStats MpiLite::reliability_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReliabilityStats total;
  for (const ReliabilityStats& s : rel_stats_) {
    total.retransmits += s.retransmits;
    total.corrupt_detected += s.corrupt_detected;
    total.duplicates_dropped += s.duplicates_dropped;
    total.timeouts += s.timeouts;
  }
  return total;
}

void MpiLite::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  mailboxes_.clear();
  send_seq_.clear();
  recv_next_.clear();
  send_log_.clear();
  ooo_.clear();
  delayed_.clear();
  abort_.store(false, std::memory_order_release);
}

void MpiLite::abort_world() {
  abort_.store(true, std::memory_order_release);
  // Lock-then-notify so a rank between checking the predicate and
  // blocking cannot miss the wakeup.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

void MpiLite::run(const std::function<void(Comm&)>& node_main) {
  GC_CHECK_MSG(!aborted(),
               "MpiLite world is aborted from a previous failure; call "
               "reset() before running again");
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks_));
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < ranks_; ++r) {
    threads.emplace_back([this, r, &node_main, &err_mu, &first_error] {
      try {
        Comm comm(this, r);
        node_main(comm);
      } catch (...) {
        // Record before aborting: ranks woken by the abort throw
        // CommAborted only after this store, so the root cause wins.
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        abort_world();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void MpiLite::inject(const Key& key, Msg m) {
  const u64 seq = m.seq;
  FaultSpec* f = faults_;
  if (f && (f->blackholed(key.src, key.dst, key.tag) ||
            f->roll(FaultKind::Drop, key.src, key.dst, key.tag, seq))) {
    return;
  }
  std::queue<Msg>& box = mailboxes_[key];
  if (!f) {
    box.push(std::move(m));
    return;
  }
  if (f->roll(FaultKind::Corrupt, key.src, key.dst, key.tag, seq) &&
      !m.data.empty()) {
    const u64 bit = f->corrupt_bit(key.src, key.dst, key.tag, seq,
                                   static_cast<u64>(m.data.size()) *
                                       sizeof(Real) * 8);
    auto* bytes = reinterpret_cast<unsigned char*>(m.data.data());
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  const bool dup = f->roll(FaultKind::Duplicate, key.src, key.dst, key.tag,
                           seq);
  if (f->roll(FaultKind::Delay, key.src, key.dst, key.tag, seq) &&
      delayed_.find(key) == delayed_.end()) {
    // Held back until the channel's next message passes it (reorder); a
    // receive timeout retransmit covers the no-next-message case.
    delayed_.emplace(key, std::move(m));
    return;
  }
  if (dup) box.push(m);
  box.push(std::move(m));
  auto dit = delayed_.find(key);
  if (dit != delayed_.end()) {
    box.push(std::move(dit->second));
    delayed_.erase(dit);
  }
}

void MpiLite::retransmit(const Key& key, u64 seq) {
  auto lit = send_log_.find(key);
  if (lit == send_log_.end()) return;
  auto it = lit->second.find(seq);
  if (it == lit->second.end()) return;  // not sent yet, or already acked
  if (faults_ && faults_->blackholed(key.src, key.dst, key.tag)) return;
  Msg m;
  m.seq = seq;
  m.crc = payload_crc(it->second);
  m.t_us = now_us();
  m.data = it->second;
  mailboxes_[key].push(std::move(m));
  ++rel_stats_[static_cast<std::size_t>(key.dst)].retransmits;
}

void MpiLite::do_send(int src, int dst, int tag, Payload data) {
  GC_CHECK_MSG(dst >= 0 && dst < ranks_, "send to invalid rank " << dst);
  // Checksum and retained copy are taken before locking: the one mutex
  // serializes every rank, so only the bookkeeping runs under it.
  const auto values = static_cast<i64>(data.size());
  Payload retained = data;
  Msg m;
  m.crc = payload_crc(data);
  m.data = std::move(data);
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_messages_ += 1;
    total_values_ += values;
    RankTraffic& rt = rank_traffic_[static_cast<std::size_t>(src)];
    rt.messages += 1;
    rt.payload_values += values;
    const Key key{src, dst, tag};
    m.seq = send_seq_[key]++;
    m.t_us = now_us();
    // Retained until the receiver delivers it (delivery is the ack).
    send_log_[key].emplace(m.seq, std::move(retained));
    inject(key, std::move(m));
  }
  cv_.notify_all();
}

Payload MpiLite::do_recv(int src, int dst, int tag, double* enqueue_us) {
  GC_CHECK_MSG(src >= 0 && src < ranks_, "recv from invalid rank " << src);
  std::unique_lock<std::mutex> lock(mu_);
  const Key key{src, dst, tag};
  // std::map references stay valid while other channels are inserted.
  std::queue<Msg>& box = mailboxes_[key];
  std::map<u64, Msg>& ooo = ooo_[key];
  u64& next = recv_next_[key];
  const u64 expect = next;
  ReliabilityStats& st = rel_stats_[static_cast<std::size_t>(dst)];
  int attempts = 0;

  for (;;) {
    // Drain the mailbox until the expected envelope is in hand.
    std::optional<Msg> got;
    if (auto oit = ooo.find(expect); oit != ooo.end()) {
      got = std::move(oit->second);
      ooo.erase(oit);
    }
    while (!got && !box.empty()) {
      Msg m = std::move(box.front());
      box.pop();
      if (m.seq < expect || ooo.count(m.seq)) {
        ++st.duplicates_dropped;
      } else if (payload_crc(m.data) != m.crc) {
        ++st.corrupt_detected;
        retransmit(key, m.seq);  // NACK: re-inject the clean retained copy
      } else if (m.seq > expect) {
        ooo.emplace(m.seq, std::move(m));
      } else {
        got = std::move(m);
      }
    }
    if (got) {
      next = expect + 1;
      // Ack: purge the sender-side retained copies up to this point.
      std::map<u64, Payload>& log = send_log_[key];
      log.erase(log.begin(), log.upper_bound(expect));
      if (enqueue_us) *enqueue_us = got->t_us;
      return std::move(got->data);
    }
    if (aborted()) throw CommAborted("recv aborted: another rank failed");

    const auto ready = [this, &box] { return aborted() || !box.empty(); };
    if (!faults_) {
      cv_.wait(lock, ready);
      continue;
    }
    const double mult =
        std::min(std::pow(rel_.backoff, attempts), rel_.max_backoff);
    const auto wait =
        std::chrono::duration<double, std::milli>(rel_.recv_timeout_ms * mult);
    if (!cv_.wait_for(lock, wait, ready)) {
      ++st.timeouts;
      ++attempts;
      if (attempts > rel_.max_retries) {
        throw CommTimeout("recv timeout: no intact message from rank " +
                          std::to_string(key.src) + " tag " +
                          std::to_string(key.tag) + " seq " +
                          std::to_string(expect) + " after " +
                          std::to_string(attempts) + " attempts");
      }
      retransmit(key, expect);  // no-op while the sender hasn't sent yet
    }
  }
}

}  // namespace gc::netsim
