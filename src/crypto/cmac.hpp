// AES-CMAC per RFC 4493 / NIST SP 800-38B.
//
// Used by the key-distribution layer as a PRF: pairwise keys and the
// deterministic DRBG personalisation strings are derived with CMAC, which
// is the derivation a Contiki deployment with an AES peripheral would use.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/aes128.hpp"

namespace mpciot::crypto {

class Cmac {
 public:
  using Tag = Aes128::Block;

  explicit Cmac(const Aes128::Key& key);
  /// Reuse an expanded key schedule (e.g. one shared with an AesCtr
  /// under the same key) instead of expanding the key again.
  explicit Cmac(const Aes128& cipher);

  /// Compute the 128-bit CMAC tag of `message`.
  Tag compute(std::span<const std::uint8_t> message) const;

  /// Constant-time tag comparison.
  static bool verify(const Tag& a, const Tag& b);

 private:
  Aes128 cipher_;
  Aes128::Block k1_{};
  Aes128::Block k2_{};
};

}  // namespace mpciot::crypto
