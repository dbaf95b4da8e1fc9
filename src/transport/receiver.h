// Receiver agent: reassembles a flow, sends cumulative ACKs, advertises the
// receive window.
//
// For TCP flows the advertised window is a large static buffer (standard
// behaviour). For SCDA flows the receiver's resource monitor periodically
// sets rcvw = downlink_rate x RTT (paper section VIII, step 8).
#pragma once

#include <cstdint>
#include <map>

#include "net/network.h"
#include "transport/flow.h"

namespace scda::transport {

class Receiver {
 public:
  Receiver(net::Network& net, FlowRecord& rec, std::int64_t rcvw_bytes)
      : net_(net), rec_(rec), rcvw_bytes_(rcvw_bytes) {}

  /// Take a DATA segment (other packets are ignored) and acknowledge it at
  /// once: every segment is acked, as by NS2's base TCP sink, and the
  /// SCDA window transport wants per-packet acks. Returns true exactly
  /// once, for the segment that completes the content, after stamping the
  /// record's finish time; the caller reports the completion.
  bool handle(net::Packet&& p);

  /// Optional global counter bumped by every newly delivered payload byte
  /// (drives the instantaneous-throughput series of figures 7/10/17).
  void set_delivered_counter(std::int64_t* counter) noexcept {
    delivered_counter_ = counter;
  }

  /// SCDA: the local RM updates the advertised window every control interval.
  void set_rcvw_bytes(std::int64_t w) noexcept {
    rcvw_bytes_ = w > min_rcvw_bytes_ ? w : min_rcvw_bytes_;
  }
  [[nodiscard]] std::int64_t rcvw_bytes() const noexcept { return rcvw_bytes_; }

  [[nodiscard]] std::int64_t next_expected() const noexcept {
    return next_expected_;
  }
  [[nodiscard]] bool complete() const noexcept {
    return next_expected_ >= rec_.size_bytes;
  }

 private:
  void merge(std::int64_t lo, std::int64_t hi);
  void send_ack(sim::SimTime echo_ts);

  net::Network& net_;
  FlowRecord& rec_;
  std::int64_t rcvw_bytes_;
  /// Never advertise less than one segment or the connection stalls.
  std::int64_t min_rcvw_bytes_ = net::kDefaultMtuBytes;

  std::int64_t* delivered_counter_ = nullptr;
  std::int64_t next_expected_ = 0;
  /// Out-of-order byte ranges [lo, hi) not yet contiguous with
  /// next_expected_. Reassembly needs the ranges key-sorted to merge the
  /// contiguous prefix, and the map is empty except under loss.
  // scda-lint: allow(map-hot-path)
  std::map<std::int64_t, std::int64_t> ooo_;
  bool completed_ = false;
};

}  // namespace scda::transport
