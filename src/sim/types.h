// Strong value types for the simulation kernel.
//
// The evaluation in the paper is only reproducible because the simulator
// is deterministic; a swapped NodeId/LinkId argument or a time passed
// where a rate was expected compiles silently with raw ints/doubles and
// only shows up as a wrong figure. These wrappers make that class of bug
// a compile error while generating the exact same machine code:
//
//   - StrongId<Tag, Rep>: a typed integer id. No implicit conversion to
//     or from the representation; ids with different tags do not mix.
//     Container indexing goes through index()/from_index so the (checked)
//     signed->size_t cast lives in exactly one place.
//   - SimTime: simulation time as a signed 64-bit integer count of
//     nanoseconds. Point/duration sums, differences and comparisons are
//     exact integer arithmetic, so equal-by-construction deadlines stay
//     equal no matter how they were accumulated — the class of
//     few-ulps-below-now drift that float time suffered is structurally
//     impossible. Construction from fractional seconds goes through
//     secs() / SimTime::from_seconds() (rounds to the nearest
//     nanosecond, ties away from zero); seconds() unwraps to double only
//     at the boundaries where time feeds rate math or %.9g JSON
//     emission.
//
// Both are structural wrappers over their representation: passing or
// returning them by value is byte-identical to passing the raw Rep, so
// the conversion is observably zero-cost (locked by bench budgets).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

namespace scda::sim {

/// Typed integer identifier. `Tag` is any (possibly incomplete) type used
/// only to make distinct id spaces distinct types; `Rep` is the storage
/// representation. Value-initialises to Rep{} (matching the raw-int
/// behaviour this type replaced); invalid sentinels are Rep{-1} and are
/// defined next to each alias (e.g. net::kInvalidNode).
template <typename Tag, typename Rep = std::int32_t>
class StrongId {
  static_assert(std::is_integral_v<Rep> && std::is_signed_v<Rep>,
                "StrongId requires a signed integral representation");

 public:
  using rep_type = Rep;

  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(Rep v) noexcept : v_(v) {}

  /// Underlying value (for arithmetic/printing at the representation
  /// boundary; prefer index() when subscripting containers).
  [[nodiscard]] constexpr Rep value() const noexcept { return v_; }

  /// True for non-negative ids (all invalid sentinels are -1).
  [[nodiscard]] constexpr bool valid() const noexcept { return v_ >= Rep{0}; }

  /// Container subscript for this id. Asserts the id is valid.
  [[nodiscard]] constexpr std::size_t index() const noexcept {
    assert(v_ >= Rep{0});
    return static_cast<std::size_t>(v_);
  }

  /// Build an id from a container index (the only sanctioned
  /// size_t -> id narrowing site).
  [[nodiscard]] static constexpr StrongId from_index(std::size_t i) noexcept {
    return StrongId{static_cast<Rep>(i)};
  }

  /// Sequential id generation (allocator counters).
  constexpr StrongId& operator++() noexcept {
    ++v_;
    return *this;
  }
  constexpr StrongId operator++(int) noexcept {
    const StrongId old = *this;
    ++v_;
    return old;
  }

  friend constexpr bool operator==(StrongId a, StrongId b) noexcept {
    return a.v_ == b.v_;
  }
  friend constexpr bool operator!=(StrongId a, StrongId b) noexcept {
    return a.v_ != b.v_;
  }
  friend constexpr bool operator<(StrongId a, StrongId b) noexcept {
    return a.v_ < b.v_;
  }
  friend constexpr bool operator<=(StrongId a, StrongId b) noexcept {
    return a.v_ <= b.v_;
  }
  friend constexpr bool operator>(StrongId a, StrongId b) noexcept {
    return a.v_ > b.v_;
  }
  friend constexpr bool operator>=(StrongId a, StrongId b) noexcept {
    return a.v_ >= b.v_;
  }

 private:
  Rep v_ = Rep{};
};

/// Simulation time as an exact signed 64-bit nanosecond count. Named
/// factories (from_nanos / from_seconds) keep raw doubles (rates, sizes,
/// ratios) from silently becoming times and make every fractional-second
/// rounding site explicit; arithmetic is closed over the operations that
/// are meaningful for a time axis and is exact except where a double
/// scalar enters (* and / round to the nearest nanosecond).
///
/// Range: +-2^63 ns is roughly +-292 years of simulated time — far beyond
/// any run this simulator performs — and integer +/- within that range
/// never loses precision, unlike the double-of-seconds representation
/// this replaced.
class SimTime {
 public:
  using rep_type = std::int64_t;
  static constexpr rep_type kNanosPerSecond = 1'000'000'000;

  constexpr SimTime() noexcept = default;

  /// Exact construction from a nanosecond count.
  [[nodiscard]] static constexpr SimTime from_nanos(rep_type ns) noexcept {
    return SimTime{ns};
  }
  /// Construction from fractional seconds: rounds to the nearest
  /// nanosecond, ties away from zero. The only double -> time entry point.
  [[nodiscard]] static constexpr SimTime from_seconds(double s) noexcept {
    return SimTime{round_to_ns(s * static_cast<double>(kNanosPerSecond))};
  }
  /// Whether from_seconds(s) is defined: its rounded nanosecond count fits
  /// rep_type (about +-292 years). False for NaN and the infinities.
  [[nodiscard]] static constexpr bool representable(double s) noexcept {
    const double x = s * static_cast<double>(kNanosPerSecond);
    return x + 0.5 < 0x1p63 && -x + 0.5 < 0x1p63;
  }

  /// Underlying exact nanosecond count.
  [[nodiscard]] constexpr rep_type nanos() const noexcept { return ns_; }

  /// Unwrap to seconds (rate math, %.9g JSON emission). Exact for counts
  /// up to 2^53 ns (~104 simulated days); beyond that the double is the
  /// nearest representable value, deterministically.
  [[nodiscard]] constexpr double seconds() const noexcept {
    return static_cast<double>(ns_) * 1e-9;
  }

  [[nodiscard]] static constexpr SimTime zero() noexcept { return SimTime{}; }

  // --- typed arithmetic --------------------------------------------------
  // point + duration and duration + duration share one type; sums and
  // differences are exact integer arithmetic.
  friend constexpr SimTime operator+(SimTime a, SimTime b) noexcept {
    return SimTime{a.ns_ + b.ns_};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) noexcept {
    return SimTime{a.ns_ - b.ns_};
  }
  friend constexpr SimTime operator-(SimTime a) noexcept {
    return SimTime{-a.ns_};
  }
  /// Scaling by a double rounds to the nearest nanosecond (ties away from
  /// zero) — scaling leaves the exact-integer domain and re-enters it.
  friend constexpr SimTime operator*(SimTime a, double k) noexcept {
    return SimTime{round_to_ns(static_cast<double>(a.ns_) * k)};
  }
  friend constexpr SimTime operator*(double k, SimTime a) noexcept {
    return a * k;
  }
  friend constexpr SimTime operator/(SimTime a, double k) noexcept {
    return SimTime{round_to_ns(static_cast<double>(a.ns_) / k)};
  }
  /// Ratio of two times is a dimensionless scalar.
  friend constexpr double operator/(SimTime a, SimTime b) noexcept {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  constexpr SimTime& operator+=(SimTime o) noexcept {
    ns_ += o.ns_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) noexcept {
    ns_ -= o.ns_;
    return *this;
  }

  friend constexpr bool operator==(SimTime a, SimTime b) noexcept {
    return a.ns_ == b.ns_;
  }
  friend constexpr bool operator!=(SimTime a, SimTime b) noexcept {
    return !(a == b);
  }
  friend constexpr bool operator<(SimTime a, SimTime b) noexcept {
    return a.ns_ < b.ns_;
  }
  friend constexpr bool operator<=(SimTime a, SimTime b) noexcept {
    return a.ns_ <= b.ns_;
  }
  friend constexpr bool operator>(SimTime a, SimTime b) noexcept {
    return a.ns_ > b.ns_;
  }
  friend constexpr bool operator>=(SimTime a, SimTime b) noexcept {
    return a.ns_ >= b.ns_;
  }

 private:
  constexpr explicit SimTime(rep_type ns) noexcept : ns_(ns) {}

  /// Round-to-nearest, ties away from zero (constexpr; llround is not).
  [[nodiscard]] static constexpr rep_type round_to_ns(double x) noexcept {
    return x >= 0.0 ? static_cast<rep_type>(x + 0.5)
                    : -static_cast<rep_type>(-x + 0.5);
  }

  rep_type ns_ = 0;
};

/// Self-documenting converter for literal times: secs(0.05). Rounds to
/// the nearest nanosecond like SimTime::from_seconds.
[[nodiscard]] constexpr SimTime secs(double s) noexcept {
  return SimTime::from_seconds(s);
}

/// Exact nanosecond literal: nanos(50) is 50 ns, no rounding involved.
[[nodiscard]] constexpr SimTime nanos(std::int64_t ns) noexcept {
  return SimTime::from_nanos(ns);
}

// --- dimensioned quantities --------------------------------------------------
// The last class of unit bug StrongId/SimTime left open: every rate and
// byte count was a raw double/int64, so bps-vs-Bps and bytes-vs-bits
// mixups compiled silently. Quantity<Unit, Rep> closes it the same way
// SimTime closed time: an explicit-construction structural wrapper whose
// arithmetic is closed over one dimension, with the cross-dimension
// algebra the hot paths actually use defined explicitly below. Unwrapping
// to the raw representation happens through one named member per unit
// (bps() / bytes() / bits(), mirroring SimTime::seconds()) and is reserved
// for the documented boundaries: %.9g JSON / stats emission and numeric
// kernels whose expression shape must stay bit-identical (the fluid
// engine's fractional-byte integration, rate_metric.h internals). See
// docs/static_analysis.md, "Dimensioned quantities".

namespace unit {
struct BitsPerSecond;  ///< rate dimension (double rep: allocator math)
struct Bytes;          ///< exact byte counts (int64 rep)
struct Bits;           ///< exact bit counts (int64 rep)
}  // namespace unit

/// Dimension-checked arithmetic wrapper. Same-unit quantities add,
/// subtract, scale by a dimensionless Rep scalar and compare; the ratio of
/// two same-unit quantities is a dimensionless double. Nothing converts
/// implicitly in or out, so a BitRate cannot be passed where a ByteCount
/// (or a raw double) is expected. Structural wrapper: passing a Quantity
/// by value is byte-identical to passing the raw Rep, and every closed
/// operator performs exactly the one Rep operation it replaces — the
/// tree-wide conversion is observably zero-cost and bit-identical.
template <typename Unit, typename Rep>
class Quantity {
  static_assert(std::is_arithmetic_v<Rep> && !std::is_same_v<Rep, bool>,
                "Quantity requires an arithmetic representation");

 public:
  using unit_type = Unit;
  using rep_type = Rep;

  constexpr Quantity() noexcept = default;
  constexpr explicit Quantity(Rep v) noexcept : v_(v) {}

  /// Raw representation (generic contexts; prefer the unit-named unwraps
  /// below so grep finds every boundary crossing).
  [[nodiscard]] constexpr Rep value() const noexcept { return v_; }

  [[nodiscard]] static constexpr Quantity zero() noexcept {
    return Quantity{};
  }

  // --- unit-named unwraps (the documented raw-Rep boundaries) --------------
  /// Bits per second of a rate (JSON emission, fractional-byte kernels).
  [[nodiscard]] constexpr Rep bps() const noexcept
    requires std::is_same_v<Unit, unit::BitsPerSecond>
  {
    return v_;
  }
  /// Exact byte count (JSON emission, container sizing).
  [[nodiscard]] constexpr Rep bytes() const noexcept
    requires std::is_same_v<Unit, unit::Bytes>
  {
    return v_;
  }
  /// Exact bit count.
  [[nodiscard]] constexpr Rep bits() const noexcept
    requires std::is_same_v<Unit, unit::Bits>
  {
    return v_;
  }
  /// Bytes -> bits, exact (the only sanctioned x8 site).
  [[nodiscard]] constexpr Quantity<unit::Bits, Rep> bits() const noexcept
    requires std::is_same_v<Unit, unit::Bytes>
  {
    return Quantity<unit::Bits, Rep>{static_cast<Rep>(v_ * 8)};
  }

  // --- closed arithmetic ---------------------------------------------------
  friend constexpr Quantity operator+(Quantity a, Quantity b) noexcept {
    return Quantity{static_cast<Rep>(a.v_ + b.v_)};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) noexcept {
    return Quantity{static_cast<Rep>(a.v_ - b.v_)};
  }
  friend constexpr Quantity operator-(Quantity a) noexcept {
    return Quantity{static_cast<Rep>(-a.v_)};
  }
  /// Scaling by a dimensionless scalar of the representation type
  /// (priority weights, replica counts) stays within the dimension.
  friend constexpr Quantity operator*(Quantity a, Rep k) noexcept {
    return Quantity{static_cast<Rep>(a.v_ * k)};
  }
  friend constexpr Quantity operator*(Rep k, Quantity a) noexcept {
    return Quantity{static_cast<Rep>(k * a.v_)};
  }
  friend constexpr Quantity operator/(Quantity a, Rep k) noexcept {
    return Quantity{static_cast<Rep>(a.v_ / k)};
  }
  /// Ratio of two same-unit quantities is a dimensionless scalar
  /// (effective flow counts, utilization fractions).
  friend constexpr double operator/(Quantity a, Quantity b) noexcept {
    return static_cast<double>(a.v_) / static_cast<double>(b.v_);
  }
  constexpr Quantity& operator+=(Quantity o) noexcept {
    v_ = static_cast<Rep>(v_ + o.v_);
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) noexcept {
    v_ = static_cast<Rep>(v_ - o.v_);
    return *this;
  }

  // --- comparisons (same unit only) ----------------------------------------
  friend constexpr bool operator==(Quantity a, Quantity b) noexcept {
    return a.v_ == b.v_;
  }
  friend constexpr bool operator!=(Quantity a, Quantity b) noexcept {
    return a.v_ != b.v_;
  }
  friend constexpr bool operator<(Quantity a, Quantity b) noexcept {
    return a.v_ < b.v_;
  }
  friend constexpr bool operator<=(Quantity a, Quantity b) noexcept {
    return a.v_ <= b.v_;
  }
  friend constexpr bool operator>(Quantity a, Quantity b) noexcept {
    return a.v_ > b.v_;
  }
  friend constexpr bool operator>=(Quantity a, Quantity b) noexcept {
    return a.v_ >= b.v_;
  }

 private:
  Rep v_ = Rep{};
};

// Value-semantics min/max/clamp for quantities, selecting on the raw
// representation. std::min/std::max/std::clamp take and return const
// references; on a class type that reference-select defeats the
// compiler's branchless lowering (double reps: minsd/maxsd become
// compare-and-branch — a measured ~30% hit on the hierarchy/allocator
// tick benches). Each mirrors the std tie-breaking exactly —
// min -> first argument on ties, max -> first, clamp -> v — so swapping
// a call site changes no result bit.
template <typename Unit, typename Rep>
[[nodiscard]] constexpr Quantity<Unit, Rep> min(Quantity<Unit, Rep> a,
                                                Quantity<Unit, Rep> b) noexcept {
  return Quantity<Unit, Rep>{b.value() < a.value() ? b.value() : a.value()};
}
template <typename Unit, typename Rep>
[[nodiscard]] constexpr Quantity<Unit, Rep> max(Quantity<Unit, Rep> a,
                                                Quantity<Unit, Rep> b) noexcept {
  return Quantity<Unit, Rep>{a.value() < b.value() ? b.value() : a.value()};
}
template <typename Unit, typename Rep>
[[nodiscard]] constexpr Quantity<Unit, Rep> clamp(
    Quantity<Unit, Rep> v, Quantity<Unit, Rep> lo,
    Quantity<Unit, Rep> hi) noexcept {
  // min(max(v, lo), hi) rather than std::clamp's nested ternary: for
  // lo <= hi the value is the same, and gcc lowers the composition to
  // maxsd+minsd where it compiles the ternary to compare-and-branch.
  return min(max(v, lo), hi);
}

/// Rate in bits per second. Double representation: rates are the output of
/// the allocator's floating-point fixed point, not exact counts.
using BitRate = Quantity<unit::BitsPerSecond, double>;
/// Exact byte count (sizes, counters). Signed so differences are closed.
using ByteCount = Quantity<unit::Bytes, std::int64_t>;
/// Exact bit count (queue occupancy x8, wire sizes).
using BitCount = Quantity<unit::Bits, std::int64_t>;

/// Self-documenting literal converters, mirroring secs()/nanos().
[[nodiscard]] constexpr BitRate bps(double v) noexcept { return BitRate{v}; }
[[nodiscard]] constexpr ByteCount bytes(std::int64_t v) noexcept {
  return ByteCount{v};
}
[[nodiscard]] constexpr BitCount bits(std::int64_t v) noexcept {
  return BitCount{v};
}

// --- cross-dimension algebra -------------------------------------------------
// Each operator is the one double expression the call sites previously
// wrote by hand, so converted code produces bit-identical results.

/// Transfer time of an exact bit count at a rate. (SimTime::from_seconds
/// rounds to the nearest nanosecond, ties away from zero.)
[[nodiscard]] constexpr SimTime operator/(BitCount b, BitRate r) noexcept {
  return SimTime::from_seconds(static_cast<double>(b.bits()) / r.bps());
}
/// Transfer time of an exact byte count at a rate (bytes * 8.0 / bps —
/// the serialization-delay expression used across the transport layer).
[[nodiscard]] constexpr SimTime operator/(ByteCount b, BitRate r) noexcept {
  return SimTime::from_seconds(static_cast<double>(b.bytes()) * 8.0 /
                               r.bps());
}
/// Bits transferred in a time window, rounded to the nearest whole bit
/// (ties away from zero, matching SimTime's double-scaling policy).
[[nodiscard]] constexpr BitCount operator*(BitRate r, SimTime t) noexcept {
  const double x = r.bps() * t.seconds();
  return BitCount{x >= 0.0 ? static_cast<std::int64_t>(x + 0.5)
                           : -static_cast<std::int64_t>(-x + 0.5)};
}
[[nodiscard]] constexpr BitCount operator*(SimTime t, BitRate r) noexcept {
  return r * t;
}
/// An exact bit count delivered every second, as a rate (named constants:
/// one MTU per second is the allocator's min-rate floor).
[[nodiscard]] constexpr BitRate per_second(BitCount b) noexcept {
  return BitRate{static_cast<double>(b.bits())};
}

}  // namespace scda::sim

template <typename Tag, typename Rep>
struct std::hash<scda::sim::StrongId<Tag, Rep>> {
  [[nodiscard]] std::size_t operator()(
      scda::sim::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};

// Hash the exact integer representation. (The double-seconds predecessor
// hashed through std::hash<double>, where 0.0 and -0.0 compare equal but
// may hash differently — an unordered-container correctness bug. The
// integer representation has one encoding per value, so equal times hash
// equally by construction.)
template <>
struct std::hash<scda::sim::SimTime> {
  [[nodiscard]] std::size_t operator()(scda::sim::SimTime t) const noexcept {
    return std::hash<scda::sim::SimTime::rep_type>{}(t.nanos());
  }
};

// Hash the representation. Exact-count quantities (ByteCount/BitCount)
// inherit the one-encoding-per-value property of integers; BitRate hashes
// through std::hash<double> and keeps its caveats (0.0 vs -0.0), which is
// acceptable because rates key no unordered container in this tree — the
// specialization exists so generic code does not fall back to hashing a
// silently unwrapped raw double under a different type.
template <typename Unit, typename Rep>
struct std::hash<scda::sim::Quantity<Unit, Rep>> {
  [[nodiscard]] std::size_t operator()(
      scda::sim::Quantity<Unit, Rep> q) const noexcept {
    return std::hash<Rep>{}(q.value());
  }
};
