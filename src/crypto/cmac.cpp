#include "crypto/cmac.hpp"

#include <cstring>

namespace mpciot::crypto {

namespace {
// Left-shift a 128-bit value by one bit and conditionally XOR Rb = 0x87,
// as specified by the CMAC subkey generation algorithm.
Aes128::Block shift_xor_rb(const Aes128::Block& in) {
  Aes128::Block out{};
  std::uint8_t carry = 0;
  for (std::size_t i = in.size(); i-- > 0;) {
    out[i] = static_cast<std::uint8_t>((in[i] << 1) | carry);
    carry = static_cast<std::uint8_t>(in[i] >> 7);
  }
  if (carry) out[15] = static_cast<std::uint8_t>(out[15] ^ 0x87);
  return out;
}
}  // namespace

Cmac::Cmac(const Aes128::Key& key) : Cmac(Aes128(key)) {}

Cmac::Cmac(const Aes128& cipher) : cipher_(cipher) {
  Aes128::Block zero{};
  const Aes128::Block l = cipher_.encrypt_block(zero);
  k1_ = shift_xor_rb(l);
  k2_ = shift_xor_rb(k1_);
}

Cmac::Tag Cmac::compute(std::span<const std::uint8_t> message) const {
  const std::size_t n = message.size();
  const std::size_t full_blocks = n / Aes128::kBlockSize;
  const std::size_t rem = n % Aes128::kBlockSize;
  const bool last_complete = (n != 0) && (rem == 0);
  const std::size_t head_blocks =
      last_complete ? full_blocks - 1 : full_blocks;

  Aes128::Block x{};
  for (std::size_t b = 0; b < head_blocks; ++b) {
    for (std::size_t i = 0; i < Aes128::kBlockSize; ++i) {
      x[i] = static_cast<std::uint8_t>(
          x[i] ^ message[b * Aes128::kBlockSize + i]);
    }
    x = cipher_.encrypt_block(x);
  }

  Aes128::Block last{};
  if (last_complete) {
    std::memcpy(last.data(), message.data() + head_blocks * Aes128::kBlockSize,
                Aes128::kBlockSize);
    for (std::size_t i = 0; i < last.size(); ++i) {
      last[i] = static_cast<std::uint8_t>(last[i] ^ k1_[i]);
    }
  } else {
    const std::size_t tail = n - head_blocks * Aes128::kBlockSize;
    if (tail > 0) {
      std::memcpy(last.data(), message.data() + head_blocks * Aes128::kBlockSize,
                  tail);
    }
    last[tail] = 0x80;  // 10* padding
    for (std::size_t i = 0; i < last.size(); ++i) {
      last[i] = static_cast<std::uint8_t>(last[i] ^ k2_[i]);
    }
  }

  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<std::uint8_t>(x[i] ^ last[i]);
  }
  return cipher_.encrypt_block(x);
}

bool Cmac::verify(const Tag& a, const Tag& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<std::uint8_t>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

}  // namespace mpciot::crypto
