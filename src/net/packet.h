// Packet model for the NS2-substitute network substrate.
//
// Packets are small value types; the hot path moves them through link
// queues by value. Header fields cover what both TCP and the SCDA window
// transport need: sequence/ack numbers, a sender timestamp echoed by the
// receiver for RTT estimation, and a receive-window advertisement
// (step 9 of the external-write protocol, paper Fig. 3).
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace scda::net {

// Tag types give each id space its own C++ type: a NodeId handed to a
// parameter expecting a LinkId (or a FlowId truncated into an int32
// parameter) is now a compile error instead of a wrong figure.
using NodeId = sim::StrongId<struct NodeIdTag, std::int32_t>;
using LinkId = sim::StrongId<struct LinkIdTag, std::int32_t>;
using FlowId = sim::StrongId<struct FlowIdTag, std::int64_t>;

constexpr NodeId kInvalidNode{-1};
constexpr LinkId kInvalidLink{-1};
constexpr FlowId kInvalidFlow{-1};

enum class PacketType : std::uint8_t {
  kData = 0,  ///< payload-carrying segment
  kAck = 1,   ///< cumulative acknowledgement
};

/// Default maximum transmission unit, matching Ethernet.
constexpr std::int32_t kDefaultMtuBytes = 1500;
/// Header overhead accounted on data packets (IP+TCP-equivalent).
constexpr std::int32_t kHeaderBytes = 40;
/// Wire size of a pure ACK.
constexpr std::int32_t kAckBytes = 40;

struct Packet {
  FlowId flow = kInvalidFlow;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PacketType type = PacketType::kData;

  /// DATA: index of the first payload byte. ACK: cumulative ack (next byte
  /// expected by the receiver).
  std::int64_t seq = 0;
  /// Payload bytes carried (0 for ACK).
  std::int32_t payload_bytes = 0;
  /// Total wire size in bytes (payload + header).
  std::int32_t size_bytes = 0;

  /// Sender timestamp; the receiver echoes it back in `echo_ts` so the
  /// sender can measure RTT without per-packet state.
  sim::SimTime ts{};
  sim::SimTime echo_ts{};

  /// Receive-window advertisement in bytes (rcvw, paper section VIII).
  std::int64_t rcvw_bytes = 0;

  [[nodiscard]] std::int64_t seq_end() const noexcept {
    return seq + payload_bytes;
  }
};

/// Build a data segment with standard header accounting.
[[nodiscard]] inline Packet make_data(FlowId flow, NodeId src, NodeId dst,
                                      std::int64_t seq,
                                      std::int32_t payload_bytes,
                                      sim::SimTime now) {
  Packet p;
  p.flow = flow;
  p.src = src;
  p.dst = dst;
  p.type = PacketType::kData;
  p.seq = seq;
  p.payload_bytes = payload_bytes;
  p.size_bytes = payload_bytes + kHeaderBytes;
  p.ts = now;
  return p;
}

/// Build a cumulative ACK for `ack_seq` (next byte expected).
[[nodiscard]] inline Packet make_ack(FlowId flow, NodeId src, NodeId dst,
                                     std::int64_t ack_seq, sim::SimTime now,
                                     sim::SimTime echo_ts,
                                     std::int64_t rcvw_bytes) {
  Packet p;
  p.flow = flow;
  p.src = src;
  p.dst = dst;
  p.type = PacketType::kAck;
  p.seq = ack_seq;
  p.size_bytes = kAckBytes;
  p.ts = now;
  p.echo_ts = echo_ts;
  p.rcvw_bytes = rcvw_bytes;
  return p;
}

}  // namespace scda::net
