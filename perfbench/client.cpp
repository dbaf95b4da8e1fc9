#include "client.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/churn.h"

namespace perfbench {

using scda::core::CloudOp;
using scda::sim::Time;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Follow-up operations of an interactive session (paper section II-B).
constexpr std::int32_t kSessionOps = 6;

/// splitmix64 fold for the determinism checksum.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Client::Client(scda::core::Cloud& cloud, const Workload& w,
               std::uint64_t seed, StepProfile* profile)
    : cloud_(cloud),
      sim_(cloud.sim()),
      w_(w),
      prof_(profile),
      rng_(seed),
      gen_(w.arrivals),
      issue_end_(scda::sim::secs(w.issue_s)),
      horizon_(scda::sim::secs(w.issue_s + w.drain_s)) {
  failed_base_ = failed_in_cloud();
  cloud_.add_completion_callback(
      [this](const scda::transport::FlowRecord& rec, const CloudOp& op) {
        on_complete(rec, op);
      });
}

void Client::plan_arrival() {
  const auto t0 = prof_ ? Clock::now() : Clock::time_point{};
  const scda::workload::FlowRequest req = gen_.next(rng_);
  arrival_.due = arrival_.due + scda::sim::secs(req.inter_arrival_s);
  arrival_.seq = next_seq_++;
  arrival_.bytes = req.size_bytes;
  if (prof_) prof_->next_s += since(t0);
}

void Client::run() {
  plan_arrival();
  // Session operations are created by completions inside the simulation;
  // never run further ahead than one session gap, so none is issued late.
  const Time lookahead = w_.interactive_fraction > 0
                             ? scda::sim::secs(w_.session_gap_s)
                             : scda::sim::secs(w_.issue_s + w_.drain_s);
  for (;;) {
    const bool session_first =
        !sessions_.empty() && Later{}(arrival_, sessions_.top());
    // A copy: completions inside advance_to() push onto sessions_. They
    // are due at or after `target` and carry later sequence numbers, so
    // the request chosen here stays first.
    const Time due = session_first ? sessions_.top().due : arrival_.due;
    if (due >= issue_end_) break;
    const Time target = std::min(due, sim_.now() + lookahead);
    advance_to(target);
    if (target < due) continue;
    if (session_first) {
      const Pending p = sessions_.top();
      sessions_.pop();
      issue(p);
    } else {
      issue(arrival_);
      plan_arrival();
    }
  }
  advance_to(horizon_);
  acct_.unfinished = client_flows_in_flight();
}

void Client::issue(const Pending& p) {
  const auto n_clients =
      static_cast<std::int64_t>(cloud_.topology().clients().size());
  Pending req = p;
  const auto t0 = prof_ ? Clock::now() : Clock::time_point{};
  bool interactive = false;
  if (req.content == scda::core::kInvalidContent) {
    // A Poisson arrival: draw its client and whether it reads or writes.
    req.client = static_cast<std::size_t>(rng_.uniform_int(0, n_clients - 1));
    if (!readable_.empty() && rng_.bernoulli(w_.read_fraction)) {
      req.op = Op::kRead;
      req.content = readable_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(readable_.size()) - 1))];
    } else {
      req.op = Op::kWrite;
      req.content = next_content_++;
      interactive = w_.interactive_fraction > 0 &&
                    rng_.bernoulli(w_.interactive_fraction);
    }
  }
  const auto t1 = prof_ ? Clock::now() : Clock::time_point{};

  bool accepted = false;
  switch (req.op) {
    case Op::kWrite:
      accepted = cloud_.write(
          req.client, req.content, req.bytes,
          interactive ? scda::transport::ContentClass::kInteractive
                      : scda::transport::ContentClass::kSemiInteractive);
      break;
    case Op::kRead:
      accepted = cloud_.read(req.client, req.content);
      break;
    case Op::kAppend:
      accepted = cloud_.append(req.client, req.content, req.bytes);
      break;
  }
  if (prof_) {
    const auto t2 = Clock::now();
    prof_->next_s += std::chrono::duration<double>(t1 - t0).count();
    prof_->request_s += std::chrono::duration<double>(t2 - t1).count();
  }

  ++acct_.issued;
  if (!accepted) {
    ++acct_.refused;
    return;
  }
  pending_[Key{req.op, static_cast<std::int64_t>(req.client), req.content}]
      .push_back(sim_.now());
  if (interactive) session_owner_[req.content] = req.client;
}

void Client::on_complete(const scda::transport::FlowRecord& rec,
                         const CloudOp& op) {
  ++callbacks_;
  if (!prof_) {
    complete(rec, op);
    return;
  }
  const auto t0 = Clock::now();
  complete(rec, op);
  const double dt = since(t0);
  prof_->collect_s += dt;
  step_collect_s_ += dt;
}

void Client::complete(const scda::transport::FlowRecord& rec,
                      const CloudOp& op) {
  Op kind = Op::kWrite;
  switch (op.kind) {
    case CloudOp::Kind::kWrite: kind = Op::kWrite; break;
    case CloudOp::Kind::kRead: kind = Op::kRead; break;
    case CloudOp::Kind::kAppend: kind = Op::kAppend; break;
    default: return;  // replication, migration, rebalance, NNS sync
  }
  const auto it = pending_.find(Key{kind, op.client, op.content});
  if (it == pending_.end()) {
    ++phantom_completions_;
    return;
  }
  const Time issued = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) pending_.erase(it);

  // The bytes of a write that land on a dead server are lost; the Cloud
  // reports the write failed (counted through failed_writes()).
  if (kind == Op::kWrite &&
      cloud_.servers()[static_cast<std::size_t>(op.server)].failed()) {
    session_owner_.erase(op.content);
    return;
  }

  ++acct_.completed;
  latencies_ns_.push_back((rec.finish_time - issued).nanos());
  fct_sum_s_ += rec.fct();
  hash_ = fold(hash_, static_cast<std::uint64_t>(kind));
  hash_ = fold(hash_, static_cast<std::uint64_t>(op.content));
  hash_ = fold(hash_, static_cast<std::uint64_t>(op.client));
  hash_ = fold(hash_, static_cast<std::uint64_t>(rec.finish_time.nanos()));

  if (kind != Op::kWrite) return;
  readable_.push_back(op.content);
  const auto owner = session_owner_.find(op.content);
  if (owner == session_owner_.end()) return;
  // Interactive content: the owner alternates edits and fetches.
  const std::int64_t delta = std::max<std::int64_t>(rec.size_bytes / 10,
                                                    10'000);
  for (std::int32_t i = 1; i <= kSessionOps; ++i) {
    Pending p;
    p.due = sim_.now() + scda::sim::secs(w_.session_gap_s * i);
    p.seq = next_seq_++;
    p.op = i % 2 == 1 ? Op::kAppend : Op::kRead;
    p.client = owner->second;
    p.content = op.content;
    p.bytes = delta;
    sessions_.push(p);
  }
  session_owner_.erase(owner);
}

void Client::advance_to(Time t) {
  if (prof_ == nullptr) {
    sim_.run_until(t);
    return;
  }
  const scda::sim::EventQueue& q = sim_.queue();
  while (!q.empty() && q.next_time() <= t) step(q.next_time());
  sim_.run_until(t);  // no events left at or before t: only moves the clock
}

void Client::step(Time t) {
  const std::uint64_t churn_before = churn_transitions();
  const std::size_t flows_before = cloud_.transports().flow_count();
  const std::uint64_t callbacks_before = callbacks_;
  // Flows in flight: started, minus completed (every completion reaches
  // the callback), minus torn down by failures.
  const std::uint64_t in_flight = flows_before - callbacks_ -
                                  cloud_.transports().aborted_flows();
  step_collect_s_ = 0;

  const auto t0 = Clock::now();
  sim_.run_until(t);
  const double dt = since(t0) - step_collect_s_;

  const std::size_t flows_after = cloud_.transports().flow_count();
  const auto tau_ns = scda::sim::secs(cloud_.config().params.tau).nanos();
  StepProfile::Class c = StepProfile::kDispatch;
  if (churn_transitions() != churn_before) {
    c = StepProfile::kChurn;
  } else if (t.nanos() % tau_ns == 0) {
    c = StepProfile::kControl;
  } else if (flows_after > flows_before) {
    c = StepProfile::kAdmission;
    prof_->flows_in_flight_at_admission += in_flight;
  } else if (callbacks_ != callbacks_before) {
    c = StepProfile::kCompletion;
  }
  prof_->class_s[c] += dt;
  ++prof_->class_steps[c];
}

std::uint64_t Client::churn_transitions() const {
  const scda::core::ChurnInjector* inj = cloud_.churn();
  if (inj == nullptr) return 0;
  const scda::core::ChurnInjectorStats& s = inj->stats();
  return s.server_downs + s.server_ups + s.link_downs + s.link_ups +
         s.nns_downs + s.nns_ups;
}

std::uint64_t Client::failed_in_cloud() const {
  return cloud_.failed_reads() + cloud_.failed_writes();
}

std::uint64_t Client::client_flows_in_flight() const {
  const auto& clients = cloud_.topology().clients();
  const auto is_client = [&clients](scda::net::NodeId n) {
    return std::find(clients.begin(), clients.end(), n) != clients.end();
  };
  std::uint64_t n = 0;
  for (const auto& rec : cloud_.transports().records()) {
    if (rec->finished() || rec->aborted) continue;
    if (is_client(rec->src) || is_client(rec->dst)) ++n;
  }
  return n;
}

Accounting Client::accounting() const {
  Accounting a = acct_;
  a.failed = failed_in_cloud() - failed_base_;
  return a;
}

std::uint64_t Client::lost() const {
  // The two sides are counted independently: failures by the Cloud's
  // counters, unfinished operations by the flows still in flight. The sum
  // only balances if every issued operation is in exactly one bucket.
  const Accounting a = accounting();
  const std::uint64_t placed = a.completed + a.refused + a.failed +
                               a.unfinished;
  const std::uint64_t gap =
      a.issued > placed ? a.issued - placed : placed - a.issued;
  return gap + phantom_completions_;
}

std::string Client::check_accounting() const {
  const Accounting a = accounting();
  std::string err;
  if (lost() > 0)
    err += "issued " + std::to_string(a.issued) + ", completed " +
           std::to_string(a.completed) + " + refused " +
           std::to_string(a.refused) + " + failed " +
           std::to_string(a.failed) + " + unfinished " +
           std::to_string(a.unfinished) + ", unmatched completions " +
           std::to_string(phantom_completions_) + "; ";
  // Metadata requests are only ever dropped by the failover layer.
  if (!cloud_.nns_failover_enabled() &&
      cloud_.meta_stats().requests_dropped > 0)
    err += "metadata requests dropped without NNS failover; ";
  return err;
}

std::uint64_t Client::checksum() const {
  const Accounting a = accounting();
  return fold(fold(hash_, a.failed), a.unfinished);
}

}  // namespace perfbench
