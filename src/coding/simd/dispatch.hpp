#pragma once

/// \file dispatch.hpp
/// Runtime ISA selection for the decoder kernels in src/coding/simd/.
///
/// The coding library ships one scalar and (when the compiler supports the
/// flag) one AVX2 build of each hot kernel, compiled in separate
/// translation units with per-file -m options — the rest of the tree keeps
/// the portable baseline flags. At startup the best ISA the CPU supports
/// is picked once via CPUID; the environment variable
///
///   PRAN_SIMD=scalar|avx2
///
/// overrides the choice downward for testing (a request the CPU or build
/// cannot honour silently falls back to the best supported tier — benches
/// print the active ISA so the substitution is visible). Tests may also
/// pin the ISA programmatically with force_isa().
///
/// Intrinsics are confined to this directory by the pran-lint
/// `raw-intrinsics` rule: everything outside src/coding/simd/ talks to the
/// kernels through the function-pointer tables in turbo_kernels.hpp /
/// viterbi_kernels.hpp.
///
/// There is deliberately no AVX-512 tier: on real subframes its 16-lane
/// turbo batches ran a third full and decoded about half as fast as AVX2
/// (measurements in DESIGN.md §11).

namespace pran::coding::simd {

enum class Isa {
  kScalar,  ///< Portable C++; the golden reference the others must match.
  kAvx2,    ///< 8-lane float vectors (ymm).
};

/// Stable lower-case name ("scalar", "avx2") for tables/JSON.
const char* isa_name(Isa isa) noexcept;

/// True if this binary carries kernels for `isa` *and* the CPU can run
/// them (scalar is always available).
bool isa_available(Isa isa) noexcept;

/// The ISA every decode uses: the best available tier, downgraded by a
/// PRAN_SIMD override or a force_isa() call. Cheap (one relaxed load).
Isa active_isa() noexcept;

/// Pins the active ISA — the testing hook behind the golden-equivalence
/// suite. Requires isa_available(isa). Not thread-safe against concurrent
/// decodes; call it between decodes (tests and bench setup only).
void force_isa(Isa isa);

/// Drops a force_isa() pin and re-applies detection + PRAN_SIMD.
void reset_forced_isa();

/// Parses "scalar"/"avx2" (as PRAN_SIMD uses). Returns true and
/// writes `out` on success; unknown strings return false.
bool parse_isa(const char* text, Isa& out) noexcept;

}  // namespace pran::coding::simd
