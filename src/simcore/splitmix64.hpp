// SplitMix64: the one integer mixer of the project — RNG seeding, content
// and chunk tags, fixity checksums, retry jitter and WAL tear offsets all
// use it.  `mix64` is the bare finalizer (Stafford's variant 13, as in
// Vigna's splitmix64.c); `splitmix64` adds the golden-ratio increment
// first, so `splitmix64(seed)` is the first output of a SplitMix64
// generator started at `seed`.
#pragma once

#include <cstdint>

namespace cpa {

inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ULL;

[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return mix64(x + kSplitMix64Gamma);
}

static_assert(splitmix64(0) == 16294208416658607535ULL);

}  // namespace cpa
