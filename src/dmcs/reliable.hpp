#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dmcs/message.hpp"
#include "support/thread_annotations.hpp"

/// \file reliable.hpp
/// Reliable-delivery protocol for the DMCS interconnect, engaged only when a
/// machine runs under an active fault plan (fault/fault_plan.hpp). The wire
/// may then drop, duplicate, reorder, delay or truncate messages; this layer
/// restores the contract every protocol above (MOL ordering, Mattern
/// termination counting, the balancing handshakes) was written against:
/// per-(sender,receiver) FIFO and exactly-once delivery into the inbox.
///
/// Mechanism (classic sliding-window, one window per directed link):
///   - The sender stamps every cross-node message with a per-link sequence
///     number and an FNV-1a checksum, keeps a copy, and retransmits it on a
///     timeout with exponential backoff until the receiver's cumulative ack
///     covers it. A bounded retry budget turns a partitioned link into a
///     crash instead of a silent hang.
///   - The receiver discards corrupt copies (checksum mismatch), discards
///     duplicates (seq below the cumulative frontier), buffers out-of-order
///     arrivals, and releases messages to the inbox strictly in seq order.
///   - Acks are cumulative: piggybacked on every reverse-direction data
///     message and also sent as dedicated bare-ack messages (which are
///     themselves unreliable — a lost ack just provokes a retransmit whose
///     duplicate is re-acked).
///
/// Quiescence interaction: NodeStats.sent counts each *logical* send once
/// (never retransmits or acks) and NodeStats.received counts a message when
/// it is released to the inbox — a message sitting in the resequencing
/// buffer, or acked but still unreleased, keeps the global sent/received
/// counts unbalanced, so Mattern-style termination detection cannot fire
/// while anything is in flight. ReliableLink::quiet() additionally gates the
/// threaded backend's quiescence scan and the runtime's local-quiet test.
///
/// Thread-safe: on the threaded backend remote workers, the local worker and
/// the local poller all enter the link concurrently; on the emulated machine
/// the lock is uncontended and the call order is fixed by the event order.

namespace prema::fault {
class FaultPlan;
}  // namespace prema::fault

namespace prema::dmcs {

/// Checksum the receiver validates (covers everything the wire could damage).
[[nodiscard]] std::uint64_t message_checksum(const Message& m);

inline constexpr double kRtoInitialS = 2e-3;  ///< first retransmit timeout
inline constexpr double kRtoMaxS = 250e-3;    ///< backoff ceiling (doubles each retry)
inline constexpr int kMaxRetries = 30;        ///< budget before declaring the link dead

class ReliableLink {
 public:
  ReliableLink(ProcId self, int nprocs);

  // -- sender side ----------------------------------------------------------

  /// Stamp `msg` (seq, checksum, piggybacked cumulative ack, kReliable) and
  /// remember a copy for retransmission. `now_s` arms the first timeout.
  void stamp(ProcId dst, Message& msg, double now_s);

  struct Retransmit {
    ProcId dst;
    Message msg;  ///< stamped copy, kRetransmit set
  };
  /// Head-of-window messages whose timeout expired: bumps their retry count
  /// and backs off their timeout. Aborts when a message exhausts the budget.
  /// Only the lowest unacked seq per destination is ever retransmitted —
  /// acks are cumulative, so recovering the head releases every successor
  /// the receiver already buffered (no go-back-N duplicate storm).
  [[nodiscard]] std::vector<Retransmit> due_retransmits(double now_s);
  /// Earliest head-of-window retransmit deadline, or +infinity when none.
  [[nodiscard]] double next_deadline() const;

  /// The transport finished serializing a copy of `seq` onto the wire at
  /// `wire_time_s` (which can be far past the stamp time when the link's
  /// FIFO is backed up). Defers the retransmit deadline to at least
  /// `wire_time_s + rto` so the timeout measures the network round-trip,
  /// not the sender's own queueing delay. No-op if already acked.
  void note_wire_time(ProcId dst, std::uint32_t seq, double wire_time_s);

  /// Process a cumulative ack from `peer`: all seq < `cumulative` delivered.
  void on_ack(ProcId peer, std::uint32_t cumulative);

  // -- receiver side --------------------------------------------------------

  struct Accepted {
    /// In-order releases (the arriving message and any buffered successors
    /// it unblocked), to be delivered to the inbox in this order.
    std::vector<Message> deliver;
    bool duplicate = false;  ///< already delivered (or already buffered)
    bool corrupt = false;    ///< checksum mismatch; copy discarded, no ack
    std::uint32_t ack_value = 0;  ///< cumulative ack to return to the sender
  };
  /// Run one arriving reliable message through checksum / dedup /
  /// resequencing. The caller sends a bare ack with `ack_value` unless the
  /// copy was corrupt (a missing ack provokes the retransmit that carries an
  /// intact copy).
  [[nodiscard]] Accepted accept(Message&& msg);

  /// Cumulative ack value for the channel from `peer` (for piggybacking).
  [[nodiscard]] std::uint32_t cumulative(ProcId peer) const;

  // -- health / quiescence --------------------------------------------------

  /// No unacked sends and no buffered out-of-order arrivals: nothing on this
  /// node's links is in flight or held back.
  [[nodiscard]] bool quiet() const;
  /// Unacked messages outstanding toward `peer`.
  [[nodiscard]] std::size_t pending_to(ProcId peer) const;
  /// True while any message toward `peer` has needed at least one
  /// retransmit and is still unacked — the dynamic "this peer (or its link)
  /// is struggling" signal the balancer's health view consumes.
  [[nodiscard]] bool peer_lossy(ProcId peer) const;

 private:
  // The inner structs live inside tx_/rx_ (both GUARDED_BY(mu_)); Clang
  // attributes cannot express that from here, so the analyzer-only
  // GUARDED_BY_CONTEXT spelling records the discipline for lock-flow.
  struct Pending {
    Message msg PREMA_GUARDED_BY_CONTEXT(mu_);
    double deadline PREMA_GUARDED_BY_CONTEXT(mu_) = 0.0;
    double rto PREMA_GUARDED_BY_CONTEXT(mu_) = 0.0;
    int retries PREMA_GUARDED_BY_CONTEXT(mu_) = 0;
  };
  struct Tx {
    std::uint32_t next_seq PREMA_GUARDED_BY_CONTEXT(mu_) = 0;
    /// Ordered: deterministic scans.
    std::map<std::uint32_t, Pending> pending PREMA_GUARDED_BY_CONTEXT(mu_);
  };
  struct Rx {
    /// Cumulative frontier: all < expected done.
    std::uint32_t expected PREMA_GUARDED_BY_CONTEXT(mu_) = 0;
    /// Out-of-order arrivals.
    std::map<std::uint32_t, Message> buffer PREMA_GUARDED_BY_CONTEXT(mu_);
  };

  ProcId self_;
  mutable util::Mutex mu_;
  std::vector<Tx> tx_ PREMA_GUARDED_BY(mu_);  ///< indexed by destination rank
  std::vector<Rx> rx_ PREMA_GUARDED_BY(mu_);  ///< indexed by source rank
};

// -- the wire fault model, shared by both backends ----------------------------

/// Damage one copy of a message on a corrupting link: a reliable copy loses
/// half its payload (a checksum bit when it has none), so the receiver's
/// checksum test discards it and a retransmit recovers. Unreliable copies
/// (bare acks) pass unharmed.
void corrupt_in_flight(Message& m);

/// Node::peer_degraded for a node `self` whose machine runs `plan` (nullptr
/// when fault-free) and whose reliable transport is `link`: true when the
/// plan marks `p` degraded or the link to `p` is retransmitting.
[[nodiscard]] bool peer_degraded(const fault::FaultPlan* plan,
                                 const ReliableLink* link, ProcId self, ProcId p);

}  // namespace prema::dmcs
