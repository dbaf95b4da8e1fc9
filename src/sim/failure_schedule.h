// FailureSchedule: deterministic, seed-derived churn event plan.
//
// SPECI-2 (PAPERS.md) argues cloud-scale simulation must treat failure as
// the *normal* operating mode. This header turns that into a concrete,
// replayable artifact: given a churn configuration, an entity census and
// the run seed, build_failure_schedule() produces the complete list of
// server/link down+up transitions for the whole horizon — before the
// simulation starts. Injection is then trivial (post each event at its
// time) and the schedule itself is a pure function of (config, shape,
// seed), so identical seeds yield byte-identical runs at any worker count.
//
// Stochastic churn is an alternating renewal process per entity: up
// durations ~ Exp(MTBF), down durations ~ Exp(MTTR). Each entity draws
// from its own splitmix64-derived RNG stream, so adding servers or
// enabling link churn never perturbs another entity's timeline. Each
// stream is the exact std::mt19937_64 sequence of its seed, computed only
// as far as it is read (Mt64Prefix, sim/rng.h), since an entity draws
// only a handful of times.
// Scripted entries ("kill pod 3 at t=30s") overlay the stochastic plan;
// overlapping outages are resolved by the injector's per-entity down
// counts (core/churn.h), not here — the schedule just lists transitions.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace scda::sim {

enum class FailureKind : std::uint8_t {
  kServerDown,
  kServerUp,
  kLinkDown,
  kLinkUp,
  kNnsDown,
  kNnsUp,
};

[[nodiscard]] constexpr const char* to_string(FailureKind k) noexcept {
  switch (k) {
    case FailureKind::kServerDown: return "server_down";
    case FailureKind::kServerUp: return "server_up";
    case FailureKind::kLinkDown: return "link_down";
    case FailureKind::kLinkUp: return "link_up";
    case FailureKind::kNnsDown: return "nns_down";
    case FailureKind::kNnsUp: return "nns_up";
  }
  return "?";
}

/// One scheduled transition. `index` is a server index for the server
/// kinds, a trunk (ToR) index for the link kinds, and an NNS *instance*
/// index for the name-node kinds (shard primaries first, then their
/// standbys: instance i < n_shards is shard i's primary, instance
/// n_shards + i is shard i's standby).
struct FailureEvent {
  SimTime at{};
  FailureKind kind = FailureKind::kServerDown;
  std::int32_t index = 0;
};

/// Operator-scripted failure: "kill pod 3 at t=30s for 20s". A pod entry
/// expands to one event pair per server in the pod. duration_s <= 0 means
/// the outage lasts to the end of the run (no up event is emitted).
struct ScriptedFailure {
  enum class Target : std::uint8_t { kServer, kLink, kPod, kNns };
  double at_s = 0.0;
  Target target = Target::kServer;
  std::int32_t index = 0;
  double duration_s = 0.0;
};

[[nodiscard]] constexpr const char* to_string(
    ScriptedFailure::Target t) noexcept {
  switch (t) {
    case ScriptedFailure::Target::kServer: return "server";
    case ScriptedFailure::Target::kLink: return "link";
    case ScriptedFailure::Target::kPod: return "pod";
    case ScriptedFailure::Target::kNns: return "nns";
  }
  return "?";
}

/// Churn knobs (docs/scenarios.md). An MTBF of 0 disables the stochastic
/// process for that entity class; scripted entries always apply.
struct ChurnConfig {
  bool enabled = false;
  double server_mtbf_s = 0.0;  ///< mean up-time between server failures
  double server_mttr_s = 10.0; ///< mean server repair (down) time
  double link_mtbf_s = 0.0;    ///< mean up-time between trunk failures
  double link_mttr_s = 5.0;    ///< mean trunk repair time
  double nns_mtbf_s = 0.0;     ///< mean up-time between name-node failures
  double nns_mttr_s = 5.0;     ///< mean name-node repair time
  /// Stochastic processes are generated over [0, horizon_s); the runner
  /// sets this to the run's sim_time_s. <= 0 disables stochastic churn
  /// (scripted entries still apply).
  double horizon_s = 0.0;
  std::vector<ScriptedFailure> scripted;
};

/// Name-node churn is configured when the stochastic NNS stream is on or
/// any scripted entry targets an NNS instance. This is the gate for the
/// whole metadata fault-tolerance layer (standby mirroring, failover,
/// timeout/retry): runs without it keep the exact historical event
/// sequence, so committed churn artifacts stay byte-identical.
[[nodiscard]] inline bool nns_churn_configured(const ChurnConfig& cfg) {
  if (!cfg.enabled) return false;
  if (cfg.nns_mtbf_s > 0.0) return true;
  for (const ScriptedFailure& f : cfg.scripted)
    if (f.target == ScriptedFailure::Target::kNns) return true;
  return false;
}

/// Entity census the schedule is built over: how many servers, how many
/// ToR trunks (a "link failure" cuts one ToR's duplex uplink pair), the
/// pod size used to expand kPod scripted entries, and how many name-node
/// *instances* exist (primaries + standbys) for the NNS streams.
struct ChurnShape {
  std::int32_t n_servers = 0;
  std::int32_t n_links = 0;        ///< ToR trunk count
  std::int32_t servers_per_pod = 0;
  std::int32_t n_nns = 0;          ///< NNS instances (primaries + standbys)
};

/// The churn streams' seed mix, splitmix64: good avalanche, so per-entity
/// streams derived from (seed, tag, index) are effectively independent.
[[nodiscard]] constexpr std::uint64_t churn_mix(std::uint64_t x) noexcept {
  return splitmix64(x);
}

namespace detail {

/// Append the alternating up/down renewal processes of entities
/// [0, count) of one class over [0, horizon). Entity i draws from the
/// stream of churn_mix(seed ^ churn_mix((tag << 32) | i)); the streams of
/// each block of Mt64Prefix::kLanes entities are seeded in lockstep.
inline void append_renewals(std::vector<FailureEvent>& out,
                            std::uint64_t seed, std::uint64_t tag,
                            std::int32_t count, double mtbf_s, double mttr_s,
                            double horizon_s, FailureKind down,
                            FailureKind up) {
  if (mtbf_s <= 0.0 || horizon_s <= 0.0) return;
  constexpr auto kLanes = static_cast<std::int32_t>(Mt64Prefix::kLanes);
  std::array<Mt64Prefix::Seeded, Mt64Prefix::kLanes> block;
  for (std::int32_t first = 0; first < count; first += kLanes) {
    const auto n = static_cast<std::size_t>(std::min(kLanes, count - first));
    for (std::size_t l = 0; l < n; ++l)
      block[l].seed = churn_mix(seed ^ churn_mix((tag << 32) | (first + l)));
    Mt64Prefix::seed_lockstep({block.data(), n});
    for (std::size_t l = 0; l < n; ++l) {
      const auto index = static_cast<std::int32_t>(first + l);
      Mt64Prefix eng(block[l]);
      // Rng::exponential's draw; both means are > 0 here.
      const auto exponential = [&eng](double mean) {
        return std::exponential_distribution<double>(1.0 / mean)(eng);
      };
      double t = exponential(mtbf_s);
      while (t < horizon_s) {
        out.push_back({secs(t), down, index});
        t += mttr_s > 0.0 ? exponential(mttr_s) : 0.0;
        if (t >= horizon_s) break;
        out.push_back({secs(t), up, index});
        t += exponential(mtbf_s);
      }
    }
  }
}

}  // namespace detail

/// Build the full, sorted failure schedule for one run. Pure function of
/// its arguments; cfg.horizon_s <= 0 disables the stochastic processes but
/// still expands scripted entries.
[[nodiscard]] inline std::vector<FailureEvent> build_failure_schedule(
    const ChurnConfig& cfg, const ChurnShape& shape, std::uint64_t seed) {
  std::vector<FailureEvent> out;
  if (!cfg.enabled) return out;

  detail::append_renewals(out, seed, /*tag=*/1, shape.n_servers,
                          cfg.server_mtbf_s, cfg.server_mttr_s, cfg.horizon_s,
                          FailureKind::kServerDown, FailureKind::kServerUp);
  detail::append_renewals(out, seed, /*tag=*/2, shape.n_links,
                          cfg.link_mtbf_s, cfg.link_mttr_s, cfg.horizon_s,
                          FailureKind::kLinkDown, FailureKind::kLinkUp);
  detail::append_renewals(out, seed, /*tag=*/3, shape.n_nns, cfg.nns_mtbf_s,
                          cfg.nns_mttr_s, cfg.horizon_s,
                          FailureKind::kNnsDown, FailureKind::kNnsUp);

  const auto push_pair = [&out](double at_s, double duration_s,
                                FailureKind down, FailureKind up,
                                std::int32_t index) {
    if (at_s < 0.0) return;
    out.push_back({secs(at_s), down, index});
    if (duration_s > 0.0) out.push_back({secs(at_s + duration_s), up, index});
  };
  for (const ScriptedFailure& f : cfg.scripted) {
    switch (f.target) {
      case ScriptedFailure::Target::kServer:
        if (f.index >= 0 && f.index < shape.n_servers)
          push_pair(f.at_s, f.duration_s, FailureKind::kServerDown,
                    FailureKind::kServerUp, f.index);
        break;
      case ScriptedFailure::Target::kLink:
        if (f.index >= 0 && f.index < shape.n_links)
          push_pair(f.at_s, f.duration_s, FailureKind::kLinkDown,
                    FailureKind::kLinkUp, f.index);
        break;
      case ScriptedFailure::Target::kPod: {
        // A pod is one aggregation subtree's worth of servers.
        const std::int32_t per = shape.servers_per_pod;
        if (per <= 0) break;
        const std::int32_t first = f.index * per;
        for (std::int32_t s = first; s < first + per; ++s)
          if (s >= 0 && s < shape.n_servers)
            push_pair(f.at_s, f.duration_s, FailureKind::kServerDown,
                      FailureKind::kServerUp, s);
        break;
      }
      case ScriptedFailure::Target::kNns:
        if (f.index >= 0 && f.index < shape.n_nns)
          push_pair(f.at_s, f.duration_s, FailureKind::kNnsDown,
                    FailureKind::kNnsUp, f.index);
        break;
    }
  }

  std::sort(out.begin(), out.end(),
            [](const FailureEvent& a, const FailureEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.index < b.index;
            });
  return out;
}

namespace detail {

/// Strict non-negative number parse for kill specs: the whole token must
/// be consumed, so "3x" or "" fail loudly instead of silently truncating,
/// and "inf" or "nan" are not numbers a spec can use.
[[nodiscard]] inline double parse_kill_number(const std::string& token,
                                              const std::string& spec,
                                              const char* what) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("--kill: ") + what +
                                " is not a number in '" + spec + "'");
  }
  if (pos != token.size())
    throw std::invalid_argument(std::string("--kill: trailing junk after ") +
                                what + " in '" + spec + "'");
  if (!std::isfinite(v))
    throw std::invalid_argument(std::string("--kill: ") + what +
                                " must be finite in '" + spec + "'");
  if (v < 0.0)
    throw std::invalid_argument(std::string("--kill: ") + what +
                                " must be >= 0 in '" + spec + "'");
  return v;
}

}  // namespace detail

/// Parse "server:3@30+5,pod:0@30+20,nns:1@10" into scripted failures.
/// The duration suffix is optional; without it the outage is permanent.
/// Malformed specs (unknown target, non-numeric index/time, trailing
/// junk, negative or non-finite values, an index past int32, an outage
/// ending past SimTime's range) throw std::invalid_argument with the
/// offending spec named — never an out-of-range index deep inside the run.
[[nodiscard]] inline std::vector<ScriptedFailure> parse_kill_specs(
    const std::string& specs) {
  std::vector<ScriptedFailure> out;
  std::size_t pos = 0;
  while (pos < specs.size()) {
    std::size_t end = specs.find(',', pos);
    if (end == std::string::npos) end = specs.size();
    const std::string spec = specs.substr(pos, end - pos);
    pos = end + 1;
    if (spec.empty()) continue;

    const std::size_t colon = spec.find(':');
    const std::size_t at = spec.find('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon)
      throw std::invalid_argument(
          "--kill: expected TARGET:IDX@AT[+DUR], got '" + spec + "'");
    ScriptedFailure f;
    const std::string target = spec.substr(0, colon);
    if (target == "server") {
      f.target = ScriptedFailure::Target::kServer;
    } else if (target == "link") {
      f.target = ScriptedFailure::Target::kLink;
    } else if (target == "pod") {
      f.target = ScriptedFailure::Target::kPod;
    } else if (target == "nns") {
      f.target = ScriptedFailure::Target::kNns;
    } else {
      throw std::invalid_argument(
          "--kill: unknown target '" + target +
          "' (expected server|link|pod|nns) in '" + spec + "'");
    }
    const double idx = detail::parse_kill_number(
        spec.substr(colon + 1, at - colon - 1), spec, "index");
    // Range first: casting a double past int32 is undefined.
    if (idx > std::numeric_limits<std::int32_t>::max() ||
        idx != std::floor(idx))
      throw std::invalid_argument(
          "--kill: index must be an integer in [0, 2147483647] in '" + spec +
          "'");
    f.index = static_cast<std::int32_t>(idx);
    const std::string when = spec.substr(at + 1);
    const std::size_t plus = when.find('+');
    f.at_s = detail::parse_kill_number(when.substr(0, plus), spec, "time");
    if (plus != std::string::npos)
      f.duration_s =
          detail::parse_kill_number(when.substr(plus + 1), spec, "duration");
    if (!SimTime::representable(f.at_s + f.duration_s))
      throw std::invalid_argument(
          "--kill: outage ends past the simulated time range (~292 years) "
          "in '" + spec + "'");
    out.push_back(f);
  }
  return out;
}

/// Check a churn configuration, from the CLI or built in code, before any
/// event is built from it. Every MTBF, MTTR, the horizon and each scripted
/// time and duration must be finite: an infinite horizon alone would make
/// a renewal process emit events without end. A scripted outage that is
/// posted (at_s >= 0; earlier ones are dropped) must end inside SimTime's
/// range, and its index must name an entity of the run's census, so an
/// out-of-range index is a clear error instead of a silently dropped
/// schedule row. Name-node churn needs two servers at least: a standby
/// re-syncs from its primary over a flow between their host servers, which
/// a one-server cloud cannot keep apart. ChurnInjector runs it on every
/// Cloud's census. Throws std::invalid_argument naming the bad value or
/// entry.
inline void validate_churn(const ChurnConfig& cfg, const ChurnShape& shape) {
  const auto finite = [](double v, const char* what) {
    if (!std::isfinite(v))
      throw std::invalid_argument(std::string("churn: ") + what +
                                  " must be finite, got " +
                                  std::to_string(v));
  };
  finite(cfg.server_mtbf_s, "server MTBF");
  finite(cfg.server_mttr_s, "server MTTR");
  finite(cfg.link_mtbf_s, "link MTBF");
  finite(cfg.link_mttr_s, "link MTTR");
  finite(cfg.nns_mtbf_s, "NNS MTBF");
  finite(cfg.nns_mttr_s, "NNS MTTR");
  finite(cfg.horizon_s, "horizon");
  if (cfg.horizon_s > 0.0 && !SimTime::representable(cfg.horizon_s))
    throw std::invalid_argument(
        "churn: horizon is past the simulated time range (~292 years)");
  if (nns_churn_configured(cfg) && shape.n_servers < 2)
    throw std::invalid_argument(
        "churn: name-node churn needs at least 2 servers to host a standby "
        "apart from its primary, have " + std::to_string(shape.n_servers));

  const auto check = [](const ScriptedFailure& f, std::int32_t limit) {
    const auto fail = [&f](const std::string& why) {
      throw std::invalid_argument("--kill: " +
                                  std::string(to_string(f.target)) +
                                  " index " + std::to_string(f.index) + why);
    };
    if (!std::isfinite(f.at_s) || !std::isfinite(f.duration_s))
      fail(": time and duration must be finite");
    if (f.at_s >= 0.0 &&
        !SimTime::representable(f.at_s + std::max(f.duration_s, 0.0)))
      fail(": outage ends past the simulated time range (~292 years)");
    if (f.index < 0 || f.index >= limit)
      fail(" out of range (have " + std::to_string(limit) + ")");
  };
  for (const ScriptedFailure& f : cfg.scripted) {
    switch (f.target) {
      case ScriptedFailure::Target::kServer:
        check(f, shape.n_servers);
        break;
      case ScriptedFailure::Target::kLink:
        check(f, shape.n_links);
        break;
      case ScriptedFailure::Target::kPod:
        check(f, shape.servers_per_pod > 0
                     ? (shape.n_servers + shape.servers_per_pod - 1) /
                           shape.servers_per_pod
                     : 0);
        break;
      case ScriptedFailure::Target::kNns:
        check(f, shape.n_nns);
        break;
    }
  }
}

}  // namespace scda::sim
