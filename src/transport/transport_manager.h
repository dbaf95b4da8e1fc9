// TransportManager: creates flows, owns their sender/receiver agents and
// per-node Hosts, and reports completions.
//
// Agents live for the whole simulation (flows are cheap); stray packets for
// finished flows are ignored by the agents themselves.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "transport/flow.h"
#include "transport/fluid.h"
#include "transport/host.h"
#include "transport/receiver.h"
#include "transport/sender.h"

namespace scda::transport {

/// Live handles for an SCDA flow so the control plane can drive rate and
/// window updates each control interval (paper section VIII-D). Fluid-mode
/// flows have no agents: sender/receiver stay null and `fluid` is set —
/// their rate updates go through TransportManager::fluid() instead.
struct ScdaFlowHandles {
  net::FlowId id = net::kInvalidFlow;
  ScdaSender* sender = nullptr;
  Receiver* receiver = nullptr;
  bool fluid = false;
};

class TransportManager {
 public:
  explicit TransportManager(net::Network& net) : net_(net), fluid_(net) {
    fluid_.set_completion_callback([this](net::FlowId id) {
      FlowRecord& rec = *records_.at(id.index());
      rec.finish_time = net_.sim().now();
      total_delivered_bytes_ += rec.size_bytes;
      finish_flow(rec);
    });
  }

  TransportManager(const TransportManager&) = delete;
  TransportManager& operator=(const TransportManager&) = delete;

  /// Completion callback applied to every flow (stats collection).
  void set_completion_callback(FlowCompletionFn fn) {
    on_complete_ = std::move(fn);
  }

  /// Baseline TCP tuning applied to subsequently started TCP flows.
  struct TcpConfig {
    int init_cwnd_segments = 2;  ///< RFC 6928 allows up to 10
    bool delayed_ack = false;    ///< RFC 1122 delayed ACKs at the sink
    double ack_delay_s = 0.04;
  };
  void set_tcp_config(const TcpConfig& c) noexcept { tcp_config_ = c; }

  /// Enable/tune the hybrid fluid/packet mode for SCDA flows: flows of at
  /// least `threshold_bytes` advance analytically between RA epochs, mice
  /// keep per-packet fidelity (docs/fluid_engine.md). TCP flows are never
  /// fluid — their rate comes from congestion control, not the allocator.
  void set_fluid_config(const FluidConfig& c) noexcept { fluid_config_ = c; }
  [[nodiscard]] FluidEngine& fluid() noexcept { return fluid_; }
  [[nodiscard]] const FluidEngine& fluid() const noexcept { return fluid_; }
  /// Flows that fell below the fluid threshold and took the packet path
  /// while fluid mode was enabled (the mice half of the mode decision).
  [[nodiscard]] std::uint64_t mode_switches() const noexcept {
    return mode_switches_;
  }

  /// Start a TCP flow (RandTCP baseline). Returns its id.
  net::FlowId start_tcp_flow(
      net::NodeId src, net::NodeId dst, std::int64_t size_bytes,
      ContentClass content = ContentClass::kSemiInteractive);

  /// Start an SCDA flow with the given initial rate allocation.
  ScdaFlowHandles start_scda_flow(net::NodeId src, net::NodeId dst,
                                  std::int64_t size_bytes,
                                  sim::BitRate initial_rate,
                                  sim::BitRate initial_rcvw_rate,
                                  ContentClass content =
                                      ContentClass::kSemiInteractive,
                                  double priority = 1.0);

  /// Tear a live flow down mid-transfer (failure injection). The record is
  /// marked aborted, never finished; the completion callback is NOT fired.
  /// Packet flows keep their (stopped) agents alive so in-flight packets
  /// and timer events drain harmlessly; fluid flows leave the engine.
  /// Returns false if the flow is already finished or aborted.
  bool abort_flow(net::FlowId id);
  /// Flows torn down by abort_flow over the run.
  [[nodiscard]] std::uint64_t aborted_flows() const noexcept {
    return aborted_flows_;
  }

  [[nodiscard]] const FlowRecord& record(net::FlowId id) const {
    return *records_.at(id.index());
  }
  [[nodiscard]] FlowRecord& record(net::FlowId id) {
    return *records_.at(id.index());
  }
  [[nodiscard]] std::size_t flow_count() const noexcept {
    return records_.size();
  }
  /// Id the next started flow will receive — lets callers pin a source
  /// route in the Network before starting the flow (section IX).
  [[nodiscard]] net::FlowId next_flow_id() const noexcept {
    return net::FlowId::from_index(records_.size());
  }
  [[nodiscard]] const std::vector<std::unique_ptr<FlowRecord>>& records()
      const noexcept {
    return records_;
  }

  [[nodiscard]] WindowSender* sender(net::FlowId id) {
    const auto it = senders_.find(id);
    return it == senders_.end() ? nullptr : it->second.get();
  }
  [[nodiscard]] Receiver* receiver(net::FlowId id) {
    const auto it = receivers_.find(id);
    return it == receivers_.end() ? nullptr : it->second.get();
  }

  /// Total payload bytes delivered in order across all flows so far.
  [[nodiscard]] std::int64_t total_delivered_bytes() const noexcept {
    return total_delivered_bytes_;
  }

  /// Base RTT (2x propagation) between two nodes — used to seed windows.
  [[nodiscard]] double base_rtt(net::NodeId a, net::NodeId b) const;

  [[nodiscard]] Host& host(net::NodeId n);

 private:
  FlowRecord& new_record(net::NodeId src, net::NodeId dst,
                         std::int64_t size_bytes, TransportKind kind,
                         ContentClass content);
  /// Completion fan-in: closes the flow's trace span, then notifies the
  /// registered completion callback.
  void finish_flow(const FlowRecord& rec);

  net::Network& net_;
  FlowCompletionFn on_complete_;
  /// Receive window advertised by TCP receivers.
  static constexpr std::int64_t kTcpRcvwBytes = std::int64_t{1} << 24;
  TcpConfig tcp_config_;
  FluidEngine fluid_;
  FluidConfig fluid_config_;
  std::uint64_t mode_switches_ = 0;
  std::uint64_t aborted_flows_ = 0;
  std::int64_t total_delivered_bytes_ = 0;

  std::unordered_map<net::NodeId, std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<FlowRecord>> records_;
  std::unordered_map<net::FlowId, std::unique_ptr<WindowSender>> senders_;
  std::unordered_map<net::FlowId, std::unique_ptr<Receiver>> receivers_;
};

}  // namespace scda::transport
