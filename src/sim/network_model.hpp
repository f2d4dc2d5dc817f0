#pragma once

#include <cstddef>

#include "sim/types.hpp"

/// \file network_model.hpp
/// LogGP-flavoured cost model of the cluster interconnect. The paper's testbed
/// was 128 nodes on switched Fast Ethernet under LAM/MPI; the constants below
/// are parameterized to that class of network. The model splits every message
/// into (a) CPU overhead on the sender, (b) wire/transfer time, and (c) CPU
/// overhead on the receiver — the CPU parts are what the figures charge to
/// "Messaging Time".

namespace prema::sim::net {

/// One-way wire latency between any two nodes (switched network, flat).
inline constexpr double kLatencyS = 100e-6;
/// Sustained point-to-point bandwidth in bytes/second (Fast Ethernet ~100
/// Mbit/s minus protocol overhead).
inline constexpr double kBandwidthBps = 11.0e6;
/// Fixed CPU cost on the sender per message (LAM/MPI send path, ~tens of us
/// on a 333 MHz UltraSPARC).
inline constexpr double kSendOverheadS = 30e-6;
/// Fixed CPU cost on the receiver per message.
inline constexpr double kRecvOverheadS = 30e-6;
/// Additional CPU cost per payload byte (packing/copy), both ends.
inline constexpr double kPerByteCpuS = 4e-9;
/// Fixed size of the runtime's wire header, added to every payload.
inline constexpr std::size_t kHeaderBytes = 64;

/// Time from "wire send" to "arrival at receiver NIC" for `bytes` of payload.
[[nodiscard]] inline double transfer_time(std::size_t payload_bytes) {
  return kLatencyS +
         static_cast<double>(payload_bytes + kHeaderBytes) / kBandwidthBps;
}

/// CPU seconds charged on the sender for a message of `bytes` payload.
/// The wire header is packed/copied by the same CPU path as the payload,
/// so it is charged here exactly as transfer_time charges it on the wire
/// (it used to be free, which understated small-message CPU cost).
[[nodiscard]] inline double send_cpu(std::size_t payload_bytes) {
  return kSendOverheadS +
         static_cast<double>(payload_bytes + kHeaderBytes) * kPerByteCpuS;
}

/// CPU seconds charged on the receiver for a message of `bytes` payload.
/// Includes kHeaderBytes, matching send_cpu and transfer_time.
[[nodiscard]] inline double recv_cpu(std::size_t payload_bytes) {
  return kRecvOverheadS +
         static_cast<double>(payload_bytes + kHeaderBytes) * kPerByteCpuS;
}

}  // namespace prema::sim::net
