#include "workload/driver.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace scda::workload {

namespace {

/// `cfg` once its fractions are in [0, 1] and its priority is above 0.
/// Throws std::invalid_argument naming the field.
DriverConfig checked(const DriverConfig& cfg) {
  const auto refused = [](const char* rule, double v) {
    char msg[128];
    std::snprintf(msg, sizeof msg, "WorkloadDriver: %s, got %g", rule, v);
    return std::invalid_argument(msg);
  };
  if (!(cfg.read_fraction >= 0 && cfg.read_fraction <= 1))
    throw refused("read_fraction must be in [0, 1]", cfg.read_fraction);
  if (!(cfg.interactive_fraction >= 0 && cfg.interactive_fraction <= 1))
    throw refused("interactive_fraction must be in [0, 1]",
                  cfg.interactive_fraction);
  if (!(cfg.priority > 0)) throw refused("priority must be > 0", cfg.priority);
  return cfg;
}

}  // namespace

WorkloadDriver::WorkloadDriver(core::Cloud& cloud,
                               std::unique_ptr<Generator> gen,
                               DriverConfig cfg)
    : cloud_(cloud), gen_(std::move(gen)), cfg_(checked(cfg)) {
  // Track completed external writes so reads target stored content only.
  cloud_.add_completion_callback(
      [this](const transport::FlowRecord& rec, const core::CloudOp& op) {
        if (op.kind == core::CloudOp::Kind::kWrite &&
            op.content != core::kInvalidContent) {
          readable_.push_back(op.content);
          // Interactive content: start the append/read session now that
          // the initial copy exists.
          const auto it = pending_sessions_.find(op.content);
          if (it != pending_sessions_.end()) {
            ++sessions_started_;
            const std::size_t client = it->second;
            pending_sessions_.erase(it);
            const std::int64_t delta =
                std::max<std::int64_t>(rec.size_bytes / 10, 10'000);
            run_session(op.content, client, delta, cfg_.session_ops);
          }
        }
      });
}

void WorkloadDriver::start() { schedule_next(); }

void WorkloadDriver::schedule_next() {
  sim::Simulator& sim = cloud_.sim();
  const FlowRequest req = gen_->next(sim.rng());
  const sim::Time at = sim.now() + sim::secs(req.inter_arrival_s);
  if (at > sim::secs(cfg_.end_time_s))
    return;  // stop issuing; in-flight flows drain
  sim.post_at(at, [this, req] {
    issue(req);
    schedule_next();
  });
}

void WorkloadDriver::issue(const FlowRequest& req) {
  sim::Rng& rng = cloud_.sim().rng();
  const auto n_clients =
      static_cast<std::int64_t>(cloud_.topology().clients().size());
  const auto client =
      static_cast<std::size_t>(rng.uniform_int(0, n_clients - 1));

  if (req.is_control) {
    ++issued_control_;
    cloud_.write(client, next_content_++, req.size_bytes, req.content_class,
                 cfg_.priority);
    return;
  }

  const bool do_read =
      !readable_.empty() && rng.bernoulli(cfg_.read_fraction);
  if (do_read) {
    const auto idx = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(readable_.size()) - 1));
    ++issued_reads_;
    cloud_.read(client, readable_[idx], cfg_.priority);
  } else {
    ++issued_writes_;
    const core::ContentId id = next_content_++;
    auto content_class = req.content_class;
    if (cfg_.interactive_fraction > 0 &&
        rng.bernoulli(cfg_.interactive_fraction)) {
      content_class = transport::ContentClass::kInteractive;
      pending_sessions_[id] = client;
    }
    cloud_.write(client, id, req.size_bytes, content_class, cfg_.priority);
  }
}

void WorkloadDriver::run_session(core::ContentId id, std::size_t client,
                                 std::int64_t delta_bytes,
                                 std::int32_t ops_left) {
  if (ops_left <= 0) return;
  cloud_.sim().post_in(sim::secs(cfg_.session_gap_s),
                           [this, id, client, delta_bytes, ops_left] {
    ++session_ops_issued_;
    // Alternate edits (appends) and fetches (reads): HWHR interleaving.
    if (ops_left % 2 == 0) {
      cloud_.append(client, id, delta_bytes, cfg_.priority);
    } else {
      cloud_.read(client, id, cfg_.priority);
    }
    run_session(id, client, delta_bytes, ops_left - 1);
  });
}

}  // namespace scda::workload
