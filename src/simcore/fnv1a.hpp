// FNV-1a 64: the one string hash of the project — server routing, the
// chaos campaign digest and the golden campaign digest all use it.  The
// reference parameters (offset basis 14695981039346656037, prime
// 1099511628211) make results stable across platforms and builds.
#pragma once

#include <cstdint>
#include <string_view>

namespace cpa {

inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = kFnv1a64Basis;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnv1a64Prime;
  }
  return h;
}

static_assert(fnv1a64("") == kFnv1a64Basis);
static_assert(fnv1a64("a") == 12638187200555641996ULL);

}  // namespace cpa
