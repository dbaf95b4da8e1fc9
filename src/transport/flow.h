// Flow bookkeeping shared by transports, the SCDA control plane, and stats.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "sim/event_queue.h"

namespace scda::transport {

/// Content classes from paper section II-B. The server-selection strategy
/// (section VII) keys off this classification.
enum class ContentClass : std::uint8_t {
  kInteractive,      ///< HWHR — high write, high read (chat, collab editing)
  kSemiInteractive,  ///< HWLR or LWHR (video upload/popular download)
  kPassive,          ///< LWLR — rarely accessed after initial storage
};

[[nodiscard]] constexpr const char* to_string(ContentClass c) noexcept {
  switch (c) {
    case ContentClass::kInteractive: return "interactive";
    case ContentClass::kSemiInteractive: return "semi-interactive";
    case ContentClass::kPassive: return "passive";
  }
  return "?";
}

enum class TransportKind : std::uint8_t { kTcp, kScda };

struct FlowRecord {
  net::FlowId id = net::kInvalidFlow;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  std::int64_t size_bytes = 0;
  sim::Time start_time{};
  sim::Time finish_time = sim::secs(-1.0);  ///< set once all bytes delivered
  TransportKind transport = TransportKind::kTcp;
  ContentClass content = ContentClass::kSemiInteractive;
  /// Priority weight (paper eq. 6); 1.0 = unweighted max-min share.
  double priority = 1.0;
  /// Advanced analytically by the fluid engine (no sender/receiver agents,
  /// no packets); see fluid.h for the mode decision.
  bool fluid = false;
  /// Cut short by a failure (docs/scenarios.md): never finished, never
  /// counted as a completion, and ignored by FCT statistics.
  bool aborted = false;

  [[nodiscard]] bool finished() const noexcept {
    return finish_time >= sim::Time{};
  }
  [[nodiscard]] double fct() const noexcept {
    return finished() ? (finish_time - start_time).seconds() : -1.0;
  }
};

/// Fired when the receiver holds the complete content.
using FlowCompletionFn = std::function<void(const FlowRecord&)>;

}  // namespace scda::transport
