// Server selection strategies (paper section VII): the one place that
// decides which block server takes new work.
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
//
// Every choice admits only servers that have not failed and have free
// disk; under SCDA placement the NNS also avoids a server whose access
// uplink or downlink violated its SLA within the SlaManager's cooldown
// (section IV-A).
#pragma once

#include <cstdint>
#include <vector>

#include "core/block_server.h"
#include "core/hierarchy.h"
#include "core/params.h"
#include "core/sla.h"
#include "sim/simulator.h"
#include "transport/flow.h"

namespace scda::core {

/// How the cloud picks block servers for requests.
enum class PlacementPolicy : std::uint8_t {
  kScda,    ///< rate-metric based (the paper's contribution)
  kRandom,  ///< uniform random (the RandTCP baseline / VL2 / Hedera)
};

/// Ranking metric for server selection (paper section VII).
enum class SelectionMetric : std::uint8_t {
  kDown,       ///< best downlink rate (fast writes)
  kUp,         ///< best uplink rate (fast reads)
  kMinUpDown,  ///< best min(up, down) (interactive content)
};

class ServerSelector {
 public:
  /// Reads the R-hat table `hierarchy` keeps and the access links of its
  /// tree, `sla`'s violation record at `sim`'s clock, and draws random
  /// placements from `sim`'s generator.
  ServerSelector(const Hierarchy& hierarchy,
                 const std::vector<BlockServer>& servers,
                 const ScdaParams& params, const SlaManager& sla,
                 sim::Simulator& sim, PlacementPolicy policy)
      : hier_(hierarchy),
        servers_(servers),
        params_(params),
        sla_(sla),
        sim_(sim),
        policy_(policy) {}

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
  /// The admission rule (see the file comment).
  [[nodiscard]] bool admit(std::size_t s) const;
  /// Active content must not use dormant-reserved servers while the dormant
  /// policy is on (R_scale > 0).
  [[nodiscard]] bool admit_active(std::size_t s) const;
  /// Uniform pick among the admitted servers outside `exclude`; -1 after
  /// 64 draws miss.
  [[nodiscard]] std::int32_t random_server(
      const std::vector<std::int32_t>& exclude);
  /// The argmax: among the servers `ok` accepts, the one with the highest
  /// R-hat^hmax by `m`, divided by its mean power when power-aware. The
  /// lowest index wins a tie; -1 when no rate is above 0. `ok` must have
  /// no side effects: it runs only for servers that would win.
  template <typename Ok>
  [[nodiscard]] std::int32_t pick(SelectionMetric m, const Ok& ok) const;

  const Hierarchy& hier_;
  const std::vector<BlockServer>& servers_;
  const ScdaParams& params_;
  const SlaManager& sla_;
  sim::Simulator& sim_;
  PlacementPolicy policy_;
};

}  // namespace scda::core
