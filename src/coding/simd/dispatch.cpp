#include "coding/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace pran::coding::simd {
namespace {

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool built_with(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(PRAN_HAVE_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

/// Detection + PRAN_SIMD, evaluated once. The override can only select an
/// available tier; anything else degrades to the best the CPU/build offers.
Isa detect_active() noexcept {
  Isa best = Isa::kScalar;
  if (isa_available(Isa::kAvx2)) best = Isa::kAvx2;
  const char* env = std::getenv("PRAN_SIMD");
  Isa requested;
  if (env != nullptr && parse_isa(env, requested) &&
      isa_available(requested))
    return requested;
  return best;
}

std::atomic<int>& forced_slot() noexcept {
  // pran-lint: allow(determinism-hazard) -- test-only force_isa() hook;
  // production code never writes it, and the golden-equivalence suite
  // proves every ISA tier decodes bit-identically, so the selected tier
  // cannot change results.
  static std::atomic<int> forced{-1};  // -1 = not forced
  return forced;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "?";
}

bool isa_available(Isa isa) noexcept {
  if (!built_with(isa)) return false;
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return cpu_has_avx2();
  }
  return false;
}

Isa active_isa() noexcept {
  const int forced = forced_slot().load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  static const Isa detected = detect_active();
  return detected;
}

void force_isa(Isa isa) {
  PRAN_REQUIRE(isa_available(isa),
               "force_isa: requested ISA is not available on this "
               "CPU/build");
  forced_slot().store(static_cast<int>(isa), std::memory_order_relaxed);
}

void reset_forced_isa() {
  forced_slot().store(-1, std::memory_order_relaxed);
}

bool parse_isa(const char* text, Isa& out) noexcept {
  if (text == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0) {
    out = Isa::kScalar;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    out = Isa::kAvx2;
    return true;
  }
  return false;
}

}  // namespace pran::coding::simd
