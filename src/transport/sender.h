// Window-based senders.
//
// WindowSender implements the machinery both transports share: sliding
// window in bytes, segmentation at the MSS, cumulative-ACK processing,
// duplicate-ACK fast retransmit, RTO with exponential backoff, and
// RFC6298-style RTT estimation from echoed timestamps.
//
// TcpSender layers NewReno congestion control on top (the RandTCP
// baseline). ScdaSender sets its window from the rate its resource monitor
// allocates: cwnd = rate x RTT, send window = min(cwnd, rcvw) — paper
// section VIII, steps 8-12.
#pragma once

#include <algorithm>
#include <cstdint>

#include "net/network.h"
#include "transport/flow.h"

namespace scda::transport {

struct SenderStats {
  std::uint64_t data_packets_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
};

class WindowSender {
 public:
  WindowSender(net::Network& net, FlowRecord& rec, double base_rtt_s,
               std::int32_t mss_bytes = net::kDefaultMtuBytes -
                                        net::kHeaderBytes);
  virtual ~WindowSender();

  WindowSender(const WindowSender&) = delete;
  WindowSender& operator=(const WindowSender&) = delete;

  /// Begin transmitting (schedules the first window immediately).
  void start();

  /// Stop transmitting for good (flow aborted by failure injection): the
  /// RTO is disarmed and any in-flight paced-send event is invalidated via
  /// the epoch guard. The agent object stays alive — stray ACKs for dead
  /// flows are ignored, same as after normal completion.
  void stop() noexcept {
    disarm_rto();
    ++pace_epoch_;
    pace_armed_ = false;
    stopped_ = true;
  }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Take an ACK (other packets are ignored).
  void handle(net::Packet&& p);

  [[nodiscard]] bool fully_acked() const noexcept {
    return acked_ >= rec_.size_bytes;
  }
  [[nodiscard]] std::int64_t acked_bytes() const noexcept { return acked_; }
  [[nodiscard]] double srtt() const noexcept { return srtt_; }
  [[nodiscard]] double cwnd_bytes() const noexcept { return cwnd_; }
  [[nodiscard]] std::int64_t peer_rcvw_bytes() const noexcept {
    return peer_rcvw_;
  }
  [[nodiscard]] const SenderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FlowRecord& record() const noexcept { return rec_; }

 protected:
  /// How the sender repairs losses signalled by duplicate ACKs.
  ///   kNewReno  — fast retransmit + fast recovery (one hole per RTT);
  ///   kGoBackN  — rewind next_seq to the ack point and resend; with
  ///               pacing this repairs arbitrarily many holes in one paced
  ///               pass (the SCDA transport's choice — the allocator, not
  ///               the loss signal, owns the rate).
  enum class LossRecovery : std::uint8_t { kNewReno, kGoBackN };

  // --- congestion-control hooks -------------------------------------------
  /// Called once before the first segment goes out; must set cwnd_.
  virtual void on_start() = 0;
  /// New cumulative ACK advanced the window by `newly_acked` bytes.
  virtual void on_new_ack(std::int64_t newly_acked) = 0;
  /// Third duplicate ACK observed (loss signal). Return true to retransmit
  /// the segment at the ack point.
  virtual bool on_dup_ack_loss() = 0;
  /// Retransmission timer fired.
  virtual void on_timeout() = 0;
  /// Partial ACK while in recovery (NewReno hook); default no-op.
  virtual void on_partial_ack() {}

  /// Pump: send new segments while window and data allow. When pacing is
  /// enabled, emits one segment and schedules the next at the paced rate so
  /// a large window never bursts into a drop-tail queue.
  void maybe_send();
  void retransmit_at(std::int64_t seq);
  /// `w` is a fractional byte window (NewReno grows cwnd by mss*mss/cwnd),
  /// so the window stays a raw double rather than an exact ByteCount.
  void set_cwnd(double w) noexcept {
    cwnd_ = std::max<double>(w, mss_);
  }
  /// Space segment emissions at `rate` (zero disables pacing). The SCDA
  /// transport paces at its allocated rate; TCP relies on ack clocking.
  void set_pacing_rate(sim::BitRate rate) noexcept {
    pacing_rate_ = rate;
  }

  net::Network& net_;
  FlowRecord& rec_;
  double base_rtt_s_;
  std::int32_t mss_;

  std::int64_t next_seq_ = 0;   ///< next new byte to transmit
  std::int64_t acked_ = 0;      ///< cumulative bytes acknowledged
  /// Congestion window in fractional bytes (see set_cwnd).
  double cwnd_ = 0;
  std::int64_t peer_rcvw_;      ///< last advertised receive window

  // recovery state
  LossRecovery loss_recovery_ = LossRecovery::kNewReno;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_seq_ = 0;
  /// Partial ACKs seen in the current GBN recovery. The first loss signal
  /// retransmits one segment (cheap for the common lone drop); the first
  /// partial ACK proves there are more holes and the sender rewinds —
  /// poking holes one RTT apiece is what made NewReno collapse here.
  int recovery_partials_ = 0;
  static constexpr int kGbnEscalationHoles = 1;

  // RTT estimation / RTO (RFC 6298)
  double srtt_ = 0;
  double rttvar_ = 0;
  double rto_ = 1.0;
  bool rtt_seeded_ = false;

  SenderStats stats_;

 private:
  void send_segment(std::int64_t seq, bool is_retransmit);
  void pump_unpaced();
  void pump_paced();
  void arm_rto();
  void disarm_rto();
  void handle_timeout();
  void update_rtt(double sample);

  sim::EventHandle rto_handle_{};
  bool rto_armed_ = false;
  std::uint64_t rto_epoch_ = 0;  ///< invalidates stale timer callbacks

  sim::BitRate pacing_rate_{};
  bool pace_armed_ = false;
  std::uint64_t pace_epoch_ = 0;
  bool stopped_ = false;
};

/// TCP NewReno — the rate control of the RandTCP baseline.
class TcpSender final : public WindowSender {
 public:
  using WindowSender::WindowSender;

 protected:
  void on_start() override;
  void on_new_ack(std::int64_t newly_acked) override;
  bool on_dup_ack_loss() override;
  void on_timeout() override;
  void on_partial_ack() override;

 private:
  /// Initial congestion window in segments (RFC 6928 allows up to 10).
  static constexpr int kInitialWindowSegments = 2;
  double ssthresh_ = 1e18;  ///< effectively infinite until first loss
};

/// SCDA window transport: the window tracks the allocated rate.
///
/// The sender's RM pushes the flow's current uplink allocation every control
/// interval; cwnd = rate x RTT. Loss (rare under correct allocation) is
/// repaired by plain retransmission without any rate back-off — the
/// allocator, not the loss signal, owns the rate.
class ScdaSender final : public WindowSender {
 public:
  ScdaSender(net::Network& net, FlowRecord& rec, double base_rtt_s,
             sim::BitRate initial_rate,
             std::int32_t mss_bytes = net::kDefaultMtuBytes -
                                      net::kHeaderBytes)
      : WindowSender(net, rec, base_rtt_s, mss_bytes),
        rate_(initial_rate) {
    loss_recovery_ = LossRecovery::kGoBackN;
  }

  /// Called by the resource monitor every control interval (section VIII-D).
  void set_rate(sim::BitRate rate) {
    rate_ = sim::max(rate, min_rate_);
    apply_rate();
    maybe_send();
  }
  [[nodiscard]] sim::BitRate rate() const noexcept { return rate_; }

 protected:
  void on_start() override {
    apply_rate();
  }
  void on_new_ack(std::int64_t) override { apply_rate(); }
  bool on_dup_ack_loss() override { return true; }
  void on_timeout() override {}

 private:
  void apply_rate() {
    const double rtt = rtt_seeded_ ? srtt_ : base_rtt_s_;
    // cwnd = rate x RTT, as fractional bytes (window-sizing boundary).
    set_cwnd(rate_.bps() * rtt / 8.0);
    set_pacing_rate(rate_);
  }

  sim::BitRate rate_;
  /// Floor keeping a flow alive while the allocator converges:
  /// one MTU per second, derived from the named MTU constant.
  sim::BitRate min_rate_ =
      sim::per_second(sim::ByteCount{net::kDefaultMtuBytes}.bits());
};

}  // namespace scda::transport
