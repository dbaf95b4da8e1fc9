// Deterministic per-run seed derivation for replicated sweeps.
//
// Every run of a sweep derives its RNG seed from (base seed, replication
// index) through a splitmix64 mix, so the seed of replication r is a pure
// function of the spec — independent of worker count, completion order or
// which other runs exist. Replication 0 uses the base seed verbatim, which
// keeps single-seed sweeps byte-identical to the historical single-run
// benches.
#pragma once

#include <cstdint>

#include "sim/rng.h"

namespace scda::runner {

/// Seed of replication `index` under `base`. Index 0 is the base seed
/// itself (single-seed back-compat); later indices step a Weyl sequence
/// through the splitmix64 mix.
[[nodiscard]] constexpr std::uint64_t derive_seed(
    std::uint64_t base, std::uint64_t index) noexcept {
  if (index == 0) return base;
  return sim::splitmix64(base + index * 0x9E3779B97F4A7C15ULL);
}

}  // namespace scda::runner
