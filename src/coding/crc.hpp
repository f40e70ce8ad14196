#pragma once

/// \file crc.hpp
/// LTE transport-block CRC (TS 36.212): CRC-24A attached to each transport
/// block so the receiver can tell a clean decode from a decoding failure —
/// the signal HARQ acts on. Operates on bit vectors (one bit per byte),
/// matching how the rest of the coding chain passes data around.

#include <cstdint>
#include <vector>

namespace pran::coding {

/// A sequence of bits, one per element, each 0 or 1.
using Bits = std::vector<std::uint8_t>;

/// CRC-24A generator polynomial, x^24 + x^23 + x^18 + x^17 + x^14 + x^11 +
/// x^10 + x^7 + x^6 + x^5 + x^4 + x^3 + x + 1 (0x864CFB).
inline constexpr std::uint32_t kCrc24APoly = 0x864CFB;
inline constexpr int kCrcBits = 24;

/// Computes the 24-bit CRC of `data` (MSB-first bitwise division).
std::uint32_t crc24a(const Bits& data);

/// Pointer-span form of crc24a for callers that work on a prefix of a
/// buffer without copying it.
std::uint32_t crc24a(const std::uint8_t* bits, std::size_t n);

/// Returns `data` with its 24 CRC bits appended (MSB first).
Bits attach_crc(const Bits& data);

/// True if `data_with_crc` (>= 24 bits) passes the CRC check.
bool check_crc(const Bits& data_with_crc);

/// Pointer-span form of check_crc; performs no allocation.
bool check_crc(const std::uint8_t* bits, std::size_t n);

}  // namespace pran::coding
