// TransportManager: creates flows, owns their sender and receiver agents,
// hands each arriving packet to its flow's agent, and reports completions.
//
// Flow ids are dense and issued in order (next_flow_id() is the record
// count), so the per-flow tables are vectors indexed by flow id: the
// records, and beside them each flow's agents. The manager is its
// network's local-delivery hook: a packet that reaches its destination
// goes, by its flow id, to the flow's sender if it is an ACK and to its
// receiver if it is DATA. Packets of an aborted flow are dropped, and a
// fluid flow has no agents and sends none.
//
// Agents live for the whole simulation (the end-of-run metrics read every
// sender); stray packets for finished flows are ignored by the senders,
// while a receiver re-acknowledges a duplicate segment.
#pragma once

#include <memory>
#include <vector>

#include "net/network.h"
#include "transport/flow.h"
#include "transport/fluid.h"
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
  /// Sets the network's local-delivery hook for the manager's lifetime.
  explicit TransportManager(net::Network& net) : net_(net), fluid_(net) {
    net_.set_local_hook(&TransportManager::deliver, this);
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
  /// Packet flows keep their (stopped) agents, which their in-flight
  /// packets no longer reach; fluid flows leave the engine.
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

  /// A packet flow's agents; null for a fluid flow or an unknown id.
  [[nodiscard]] WindowSender* sender(net::FlowId id) {
    const Endpoints* e = endpoints_of(id);
    return e ? e->sender.get() : nullptr;
  }
  [[nodiscard]] Receiver* receiver(net::FlowId id) {
    const Endpoints* e = endpoints_of(id);
    return e ? e->receiver.get() : nullptr;
  }

  /// Total payload bytes delivered in order across all flows so far.
  [[nodiscard]] std::int64_t total_delivered_bytes() const noexcept {
    return total_delivered_bytes_;
  }

  /// Base RTT (2x propagation) between two nodes — used to seed windows.
  [[nodiscard]] double base_rtt(net::NodeId a, net::NodeId b) const;

 private:
  /// A flow's sender and receiver agents; both null for a fluid flow.
  struct Endpoints {
    std::unique_ptr<WindowSender> sender;
    std::unique_ptr<Receiver> receiver;
  };

  /// The network's local-delivery hook.
  static void deliver(void* tm, net::Packet&& p) {
    static_cast<TransportManager*>(tm)->demux(std::move(p));
  }
  void demux(net::Packet&& p);
  [[nodiscard]] Endpoints* endpoints_of(net::FlowId id) noexcept {
    if (!id.valid() || id.index() >= endpoints_.size()) return nullptr;
    return &endpoints_[id.index()];
  }
  /// Appends the flow's record and its (empty) endpoints.
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
  FluidEngine fluid_;
  FluidConfig fluid_config_;
  std::uint64_t mode_switches_ = 0;
  std::uint64_t aborted_flows_ = 0;
  std::int64_t total_delivered_bytes_ = 0;

  std::vector<std::unique_ptr<FlowRecord>> records_;
  std::vector<Endpoints> endpoints_;  ///< endpoints_[i] serve records_[i]
};

}  // namespace scda::transport
