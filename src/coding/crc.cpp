#include "coding/crc.hpp"

#include "common/check.hpp"

#include "common/narrow.hpp"

namespace pran::coding {

std::uint32_t crc24a(const std::uint8_t* bits, std::size_t n) {
  // Bitwise long division of data * x^24 by the generator.
  std::uint32_t reg = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t bit = bits[i];
    PRAN_REQUIRE(bit <= 1, "bit vectors must contain only 0/1");
    const std::uint32_t msb = (reg >> 23) & 1u;
    reg = ((reg << 1) | bit) & 0xFFFFFF;
    if (msb) reg ^= kCrc24APoly & 0xFFFFFF;
  }
  // Flush 24 zero bits.
  for (int i = 0; i < kCrcBits; ++i) {
    const std::uint32_t msb = (reg >> 23) & 1u;
    reg = (reg << 1) & 0xFFFFFF;
    if (msb) reg ^= kCrc24APoly & 0xFFFFFF;
  }
  return reg;
}

std::uint32_t crc24a(const Bits& data) { return crc24a(data.data(), data.size()); }

Bits attach_crc(const Bits& data) {
  const std::uint32_t crc = crc24a(data);
  Bits out = data;
  out.reserve(data.size() + kCrcBits);
  for (int i = kCrcBits - 1; i >= 0; --i)
    out.push_back(narrow_cast<std::uint8_t>((crc >> i) & 1u));
  return out;
}

bool check_crc(const std::uint8_t* bits, std::size_t n) {
  if (n < static_cast<std::size_t>(kCrcBits)) return false;
  const std::size_t payload_bits = n - static_cast<std::size_t>(kCrcBits);
  const std::uint32_t expected = crc24a(bits, payload_bits);
  std::uint32_t actual = 0;
  for (std::size_t i = payload_bits; i < n; ++i)
    actual = (actual << 1) | bits[i];
  return actual == expected;
}

bool check_crc(const Bits& data_with_crc) {
  return check_crc(data_with_crc.data(), data_with_crc.size());
}

}  // namespace pran::coding
