#include "dmcs/reliable.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/assert.hpp"

namespace prema::dmcs {

std::uint64_t message_checksum(const Message& m) {
  // FNV-1a over the fields the wire could damage. The envelope itself (seq,
  // ack) is modeled as protected header state and not covered.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint8_t>(m.kind));
  for (int i = 0; i < 4; ++i) {
    mix(static_cast<std::uint8_t>((m.handler >> (8 * i)) & 0xFF));
  }
  for (const std::uint8_t b : m.payload) mix(b);
  return h;
}

ReliableLink::ReliableLink(ProcId self, int nprocs) : self_(self) {
  PREMA_CHECK_MSG(nprocs > 0, "reliable link needs at least one processor");
  tx_.resize(static_cast<std::size_t>(nprocs));
  rx_.resize(static_cast<std::size_t>(nprocs));
}

void ReliableLink::stamp(ProcId dst, Message& msg, double now_s) {
  util::LockGuard g(mu_);
  Tx& tx = tx_[static_cast<std::size_t>(dst)];
  msg.seq = tx.next_seq++;
  msg.rflags |= Message::kReliable;
  msg.checksum = message_checksum(msg);
  msg.ack = rx_[static_cast<std::size_t>(dst)].expected;  // piggyback
  Pending p;
  p.msg = msg;  // copy retained until acked
  p.rto = kRtoInitialS;
  p.deadline = now_s + p.rto;
  tx.pending.emplace(msg.seq, std::move(p));
}

std::vector<ReliableLink::Retransmit> ReliableLink::due_retransmits(
    double now_s) {
  util::LockGuard g(mu_);
  std::vector<Retransmit> out;
  for (std::size_t dst = 0; dst < tx_.size(); ++dst) {
    // Head-of-window only: acks are cumulative, so the receiver is missing
    // nothing *before* the lowest unacked seq, and everything after it is
    // either in flight or already buffered receiver-side. Resending only the
    // head recovers the gap with one copy, and the cumulative ack that
    // follows clears every buffered successor at once. Retransmitting the
    // whole window instead (classic go-back-N) turns one drop into
    // O(window) redundant copies and collapses under bursty senders.
    auto it = tx_[dst].pending.begin();
    if (it == tx_[dst].pending.end()) continue;
    Pending& p = it->second;
    if (p.deadline > now_s) continue;
    ++p.retries;
    PREMA_CHECK_MSG(p.retries <= kMaxRetries,
                    "reliable transport: retry budget exhausted (link dead?)");
    p.rto = std::min(p.rto * 2.0, kRtoMaxS);
    p.deadline = now_s + p.rto;
    Retransmit r;
    r.dst = static_cast<ProcId>(dst);
    r.msg = p.msg;  // fresh copy; refresh the piggybacked cumulative ack
    r.msg.ack = rx_[dst].expected;
    r.msg.rflags |= Message::kRetransmit;
    out.push_back(std::move(r));
  }
  return out;
}

double ReliableLink::next_deadline() const {
  util::LockGuard g(mu_);
  double d = std::numeric_limits<double>::infinity();
  for (const Tx& tx : tx_) {
    // Only window heads are retransmit candidates (see due_retransmits).
    const auto it = tx.pending.begin();
    if (it != tx.pending.end()) d = std::min(d, it->second.deadline);
  }
  return d;
}

void ReliableLink::note_wire_time(ProcId dst, std::uint32_t seq,
                                  double wire_time_s) {
  util::LockGuard g(mu_);
  auto& pending = tx_[static_cast<std::size_t>(dst)].pending;
  const auto it = pending.find(seq);
  if (it == pending.end()) return;  // already acked
  Pending& p = it->second;
  p.deadline = std::max(p.deadline, wire_time_s + p.rto);
}

void ReliableLink::on_ack(ProcId peer, std::uint32_t cumulative) {
  util::LockGuard g(mu_);
  auto& pending = tx_[static_cast<std::size_t>(peer)].pending;
  pending.erase(pending.begin(), pending.lower_bound(cumulative));
}

ReliableLink::Accepted ReliableLink::accept(Message&& msg) {
  util::LockGuard g(mu_);
  Accepted out;
  Rx& rx = rx_[static_cast<std::size_t>(msg.src)];
  out.ack_value = rx.expected;
  if (message_checksum(msg) != msg.checksum) {
    out.corrupt = true;
    return out;
  }
  if (msg.seq < rx.expected || rx.buffer.count(msg.seq) != 0) {
    out.duplicate = true;  // already released (or already held); re-ack only
    return out;
  }
  if (msg.seq != rx.expected) {
    rx.buffer.emplace(msg.seq, std::move(msg));
    return out;
  }
  ++rx.expected;
  out.deliver.push_back(std::move(msg));
  for (;;) {
    auto it = rx.buffer.find(rx.expected);
    if (it == rx.buffer.end()) break;
    out.deliver.push_back(std::move(it->second));
    rx.buffer.erase(it);
    ++rx.expected;
  }
  out.ack_value = rx.expected;
  return out;
}

std::uint32_t ReliableLink::cumulative(ProcId peer) const {
  util::LockGuard g(mu_);
  return rx_[static_cast<std::size_t>(peer)].expected;
}

bool ReliableLink::quiet() const {
  util::LockGuard g(mu_);
  for (const Tx& tx : tx_) {
    if (!tx.pending.empty()) return false;
  }
  for (const Rx& rx : rx_) {
    if (!rx.buffer.empty()) return false;
  }
  return true;
}

std::size_t ReliableLink::pending_to(ProcId peer) const {
  util::LockGuard g(mu_);
  return tx_[static_cast<std::size_t>(peer)].pending.size();
}

bool ReliableLink::peer_lossy(ProcId peer) const {
  util::LockGuard g(mu_);
  for (const auto& [seq, p] : tx_[static_cast<std::size_t>(peer)].pending) {
    if (p.retries > 0) return true;
  }
  return false;
}

}  // namespace prema::dmcs
