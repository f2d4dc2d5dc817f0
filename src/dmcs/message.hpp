#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

/// \file message.hpp
/// The active-message unit of the Data Movement and Control Substrate
/// (DMCS, Barker et al. 2002). A message names a handler to run at the
/// destination and carries an opaque payload. The `kind` tag is how PREMA
/// separates system-generated (load balancing) traffic from application
/// traffic: system messages may be processed preemptively by the polling
/// thread, application messages only at application poll points (paper §4.2).

namespace prema::dmcs {

/// Identifies a registered handler; stable across processors because every
/// rank registers the same handlers in the same order. Adding a wire handler
/// is one `registry().add(name, fn)` call (HandlerRegistry aborts on a
/// duplicate name).
using HandlerId = std::uint32_t;

inline constexpr HandlerId kNoHandler = 0;

enum class MsgKind : std::uint8_t {
  kApp = 0,    ///< application message; delivered at poll points
  kSystem = 1  ///< runtime/load-balancer message; may be delivered preemptively
};

struct Message {
  HandlerId handler = kNoHandler;
  ProcId src = kNoProc;
  MsgKind kind = MsgKind::kApp;
  std::vector<std::uint8_t> payload;
  /// Local timer wakeup (Node::send_self_after): never crosses the network
  /// and is excluded from the message counts quiescence detection observes.
  bool internal = false;

  // -- reliability envelope (dmcs/reliable.hpp) -----------------------------
  // Populated only when the machine runs with an active fault plan; with no
  // plan installed every field keeps its default and the transport takes the
  // exact legacy path. Modeled as out-of-band header state (the wire cost of
  // the envelope is covered by sim::net::kHeaderBytes), so size_bytes()
  // is unchanged.
  std::uint32_t seq = 0;       ///< per-(sender,receiver) sequence number
  std::uint32_t ack = 0;       ///< cumulative ack: peer accepted all seq < ack
  std::uint64_t checksum = 0;  ///< FNV-1a over handler/kind/payload
  std::uint8_t rflags = 0;     ///< kReliable / kBareAck / kRetransmit

  static constexpr std::uint8_t kReliable = 1;    ///< tracked by seq/ack/retransmit
  static constexpr std::uint8_t kBareAck = 2;     ///< carries only an ack; never delivered
  static constexpr std::uint8_t kRetransmit = 4;  ///< a retransmitted copy

  [[nodiscard]] std::size_t size_bytes() const { return payload.size(); }
};

}  // namespace prema::dmcs
