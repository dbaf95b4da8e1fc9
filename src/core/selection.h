// Server selection strategies (paper section VII).
//
// Selection consumes the R-hat metrics maintained by the RM/RA hierarchy:
//   interactive       -> argmax min(R-hat_d, R-hat_u)            (VII-A)
//   semi-interactive  -> write: argmax R-hat_d; replica: argmax R-hat_u (VII-B)
//   passive           -> write: argmax R-hat_d; replica: a dormant-eligible
//                        server with R-hat_u > R_scale            (VII-C)
//   power-aware       -> rank by R-hat / P(t) instead of R-hat    (VII-D)
//
// While passive content exists and the dormant policy is enabled, active
// content avoids servers whose uplink allocation exceeds R_scale, keeping
// the least-loaded (dormant) servers free for passive data.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/block_server.h"
#include "core/hierarchy.h"
#include "core/params.h"
#include "core/sla.h"
#include "sim/rng.h"
#include "transport/flow.h"

namespace scda::core {

/// How the cloud picks block servers for requests.
enum class PlacementPolicy : std::uint8_t {
  kScda,    ///< rate-metric based (the paper's contribution)
  kRandom,  ///< uniform random (the RandTCP baseline / VL2 / Hedera)
};

class ServerSelector {
 public:
  ServerSelector(Hierarchy& hierarchy, std::vector<BlockServer>& servers,
                 const ScdaParams& params, sim::Rng& rng,
                 PlacementPolicy policy)
      : hier_(hierarchy),
        servers_(servers),
        params_(params),
        rng_(rng),
        policy_(policy) {}

  /// Optional admission filter (e.g. exclude servers behind links with
  /// recent SLA violations, or without disk space).
  void set_admit_filter(std::function<bool(std::size_t)> f) {
    admit_ = std::move(f);
  }

  /// Server for the initial write of `content_class` content (steps 3-4 of
  /// Fig. 3); -1 if no server qualifies.
  [[nodiscard]] std::int32_t select_write_target(
      transport::ContentClass content_class);

  /// Replication target (section VIII-B): the best server outside
  /// `exclude`, which lists every server already holding a copy (plus the
  /// repair source). Used by replication, chained replication, background
  /// repair, migration and rebalancing (docs/scenarios.md).
  [[nodiscard]] std::int32_t select_replica_target(
      transport::ContentClass content_class,
      const std::vector<std::int32_t>& exclude);

  /// Replica to read from: the one with the best uplink value (Fig. 5,
  /// step 3).
  [[nodiscard]] std::int32_t select_read_replica(
      const std::vector<std::int32_t>& replicas);

  [[nodiscard]] PlacementPolicy policy() const noexcept { return policy_; }

 private:
  [[nodiscard]] bool admit(std::size_t s) const {
    return !admit_ || admit_(s);
  }
  /// Active content must not use dormant-reserved servers while the dormant
  /// policy is on (R_scale > 0).
  [[nodiscard]] bool admit_active(std::size_t s) const;
  /// Uniform pick among the servers outside `exclude` that pass the
  /// admission filter; -1 after 64 draws miss.
  [[nodiscard]] std::int32_t random_server(
      const std::vector<std::int32_t>& exclude);
  [[nodiscard]] BestServer pick(SelectionMetric m,
                                const std::function<bool(std::size_t)>& ok)
      const;

  Hierarchy& hier_;
  std::vector<BlockServer>& servers_;
  const ScdaParams& params_;
  sim::Rng& rng_;
  PlacementPolicy policy_;
  std::function<bool(std::size_t)> admit_;
};

}  // namespace scda::core
