#include "transport/sender.h"

#include <cmath>
#include <limits>

#include "obs/observability.h"
#include "util/log.h"

namespace scda::transport {

namespace {
constexpr double kMinRto = 0.2;   // 200 ms floor, as in common stacks
constexpr double kMaxRto = 60.0;
constexpr double kInitialRto = 1.0;
}  // namespace

WindowSender::WindowSender(net::Network& net, FlowRecord& rec,
                           double base_rtt_s, std::int32_t mss_bytes)
    : net_(net),
      rec_(rec),
      base_rtt_s_(base_rtt_s),
      mss_(mss_bytes),
      peer_rcvw_(std::numeric_limits<std::int64_t>::max()),
      rto_(kInitialRto) {}

WindowSender::~WindowSender() { disarm_rto(); }

void WindowSender::start() {
  on_start();
  maybe_send();
}

void WindowSender::handle(net::Packet&& p) {
  if (p.type != net::PacketType::kAck) return;
  if (fully_acked()) return;  // stray ACKs after completion
  if (stopped_) return;       // flow aborted; late ACKs must not revive it

  peer_rcvw_ = p.rcvw_bytes;

  if (p.seq > acked_) {
    const std::int64_t newly = p.seq - acked_;
    acked_ = p.seq;
    dup_acks_ = 0;
    if (p.echo_ts > sim::SimTime{})
      update_rtt((net_.sim().now() - p.echo_ts).seconds());

    if (in_recovery_) {
      if (acked_ >= recover_seq_) {
        in_recovery_ = false;
      } else if (loss_recovery_ == LossRecovery::kGoBackN) {
        // Partial ACK: another hole. Repair the first few one segment at
        // a time (cheap for sparse drops); a burst of holes escalates to
        // a full rewind, which the paced window repairs in one pass.
        if (++recovery_partials_ <= kGbnEscalationHoles) {
          retransmit_at(acked_);
        } else {
          next_seq_ = acked_;
          ++stats_.retransmits;
        }
      } else {
        // NewReno partial ACK: retransmit the next hole immediately.
        on_partial_ack();
        retransmit_at(acked_);
      }
    }
    on_new_ack(newly);

    if (fully_acked()) {
      disarm_rto();
      return;
    }
    arm_rto();  // restart timer on forward progress
    maybe_send();
  } else if (p.seq == acked_ && next_seq_ > acked_) {
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_ && acked_ >= recover_seq_) {
      if (loss_recovery_ == LossRecovery::kGoBackN) {
        // Enter recovery with a single retransmission; partial ACKs
        // decide whether this is a lone hole or a burst (see above).
        in_recovery_ = true;
        recover_seq_ = next_seq_;
        recovery_partials_ = 0;
        ++stats_.fast_retransmits;
        on_dup_ack_loss();
        retransmit_at(acked_);
      } else if (on_dup_ack_loss()) {
        in_recovery_ = true;
        recover_seq_ = next_seq_;
        ++stats_.fast_retransmits;
        retransmit_at(acked_);
      }
    } else if (dup_acks_ > 3) {
      // Window inflation is folded into cwnd by the TCP subclass; for SCDA
      // the allocator-set window already permits continued sending.
      maybe_send();
    }
  }
}

void WindowSender::maybe_send() {
  if (stopped_) return;
  if (pacing_rate_ > sim::BitRate{}) {
    pump_paced();
  } else {
    pump_unpaced();
  }
  if (next_seq_ > acked_ && !rto_armed_) arm_rto();
}

void WindowSender::pump_unpaced() {
  const std::int64_t wnd =
      std::min<std::int64_t>(static_cast<std::int64_t>(cwnd_), peer_rcvw_);
  while (next_seq_ < rec_.size_bytes && next_seq_ - acked_ < wnd) {
    const auto payload = static_cast<std::int32_t>(
        std::min<std::int64_t>(mss_, rec_.size_bytes - next_seq_));
    // Respect the window for the full segment unless nothing is in flight
    // (always allowed to send at least one segment).
    if (next_seq_ - acked_ + payload > wnd && next_seq_ > acked_) break;
    send_segment(next_seq_, /*is_retransmit=*/false);
    next_seq_ += payload;
  }
}

void WindowSender::pump_paced() {
  if (pace_armed_) return;  // next emission already scheduled
  const std::int64_t wnd =
      std::min<std::int64_t>(static_cast<std::int64_t>(cwnd_), peer_rcvw_);
  if (next_seq_ >= rec_.size_bytes) return;
  if (next_seq_ - acked_ >= wnd && next_seq_ > acked_) return;

  const auto payload = static_cast<std::int32_t>(
      std::min<std::int64_t>(mss_, rec_.size_bytes - next_seq_));
  send_segment(next_seq_, /*is_retransmit=*/false);
  next_seq_ += payload;

  // Schedule the next emission one segment-time later at the paced rate
  // (ByteCount / BitRate -> SimTime, the dimensional form of the old
  // bytes * 8 / rate expression).
  const sim::Time gap =
      sim::ByteCount{payload + net::kHeaderBytes} / pacing_rate_;
  pace_armed_ = true;
  const auto epoch = ++pace_epoch_;
  net_.sim().post_in(gap, [this, epoch] {
    if (epoch != pace_epoch_) return;
    pace_armed_ = false;
    maybe_send();
  });
}

void WindowSender::retransmit_at(std::int64_t seq) {
  if (seq >= rec_.size_bytes) return;
  ++stats_.retransmits;
  if (obs::TraceRecorder* tr = obs::tracer_of(net_.sim())) {
    tr->instant(net_.sim().now(), "transport", "retransmit",
                obs::kTrackTransport,
                {{"flow", static_cast<double>(rec_.id.value())},
                 {"seq", static_cast<double>(seq)},
                 {"cwnd_bytes", cwnd_}});
  }
  send_segment(seq, /*is_retransmit=*/true);
}

void WindowSender::send_segment(std::int64_t seq, bool is_retransmit) {
  const auto payload = static_cast<std::int32_t>(
      std::min<std::int64_t>(mss_, rec_.size_bytes - seq));
  net::Packet p =
      net::make_data(rec_.id, rec_.src, rec_.dst, seq, payload,
                     net_.sim().now());
  if (is_retransmit)
    p.ts = sim::SimTime{};  // Karn's rule: no RTT sample on retransmits
  ++stats_.data_packets_sent;
  net_.send(std::move(p));
}

void WindowSender::arm_rto() {
  disarm_rto();
  rto_armed_ = true;
  const auto epoch = ++rto_epoch_;
  rto_handle_ = net_.sim().schedule_in(sim::secs(rto_), [this, epoch] {
    if (epoch == rto_epoch_ && rto_armed_) handle_timeout();
  });
}

void WindowSender::disarm_rto() {
  if (rto_armed_) {
    net_.sim().cancel(rto_handle_);
    rto_armed_ = false;
  }
}

void WindowSender::handle_timeout() {
  rto_armed_ = false;
  if (fully_acked()) return;
  ++stats_.timeouts;
  in_recovery_ = false;
  dup_acks_ = 0;
  on_timeout();
  rto_ = std::min(rto_ * 2.0, kMaxRto);  // exponential backoff
  // Go-back-N: resend from the cumulative ack point (what NS2's TCP does
  // after an RTO); segments the receiver already buffered are re-acked
  // immediately and the cumulative point jumps forward.
  ++stats_.retransmits;
  next_seq_ = acked_;
  maybe_send();
  arm_rto();
}

void WindowSender::update_rtt(double sample) {
  if (sample <= 0) return;
  if (!rtt_seeded_) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
    rtt_seeded_ = true;
  } else {
    constexpr double kAlpha = 1.0 / 8.0;
    constexpr double kBeta = 1.0 / 4.0;
    rttvar_ = (1 - kBeta) * rttvar_ + kBeta * std::abs(srtt_ - sample);
    srtt_ = (1 - kAlpha) * srtt_ + kAlpha * sample;
  }
  rto_ = std::clamp(srtt_ + 4.0 * rttvar_, kMinRto, kMaxRto);
}

// --- TcpSender (NewReno) -----------------------------------------------------

void TcpSender::on_start() {
  ssthresh_ = 1e18;
  set_cwnd(static_cast<double>(kInitialWindowSegments) * mss_);
}

void TcpSender::on_new_ack(std::int64_t newly_acked) {
  if (in_recovery_) return;  // window frozen during recovery (deflation)
  if (cwnd_ < ssthresh_) {
    // Slow start: one MSS per ACKed segment (byte counting).
    set_cwnd(cwnd_ +
             static_cast<double>(std::min<std::int64_t>(newly_acked, mss_)));
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    set_cwnd(cwnd_ + static_cast<double>(mss_) * mss_ / cwnd_);
  }
}

bool TcpSender::on_dup_ack_loss() {
  const double flight = static_cast<double>(next_seq_ - acked_);
  ssthresh_ = std::max(flight / 2.0, 2.0 * mss_);
  set_cwnd(ssthresh_ + 3.0 * mss_);  // fast recovery inflation
  return true;
}

void TcpSender::on_partial_ack() {
  // Deflate on partial ACK per NewReno; keep at ssthresh.
  set_cwnd(ssthresh_);
}

void TcpSender::on_timeout() {
  const double flight = static_cast<double>(next_seq_ - acked_);
  ssthresh_ = std::max(flight / 2.0, 2.0 * mss_);
  set_cwnd(mss_);  // back to slow start
}

}  // namespace scda::transport
