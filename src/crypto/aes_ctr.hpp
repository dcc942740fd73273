// AES-128 in counter (CTR) mode, per NIST SP 800-38A.
//
// CTR keeps ciphertext exactly as long as plaintext — the property the
// paper's sharing phase relies on to keep MiniCast sub-slot airtime fixed.
// The counter block is a 16-byte big-endian value incremented per block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes128.hpp"

namespace mpciot::crypto {

class AesCtr {
 public:
  using Nonce = Aes128::Block;

  explicit AesCtr(const Aes128::Key& key) : cipher_(key) {}
  /// Reuse an expanded key schedule (e.g. one shared with a Cmac under
  /// the same key) instead of expanding the key again.
  explicit AesCtr(const Aes128& cipher) : cipher_(cipher) {}

  /// XOR `data` with the AES-CTR keystream for (nonce). Encryption and
  /// decryption are the same operation. `out` may alias `data`.
  void crypt(const Nonce& nonce, std::span<const std::uint8_t> data,
             std::span<std::uint8_t> out) const;

  /// Convenience: returns a fresh buffer.
  std::vector<std::uint8_t> crypt(const Nonce& nonce,
                                  std::span<const std::uint8_t> data) const;

  /// Build a nonce from a (sender, receiver, round, sequence) tuple — the
  /// per-share uniqueness discipline used by the protocols so no (key,
  /// nonce) pair ever repeats across rounds.
  static Nonce make_nonce(std::uint32_t sender, std::uint32_t receiver,
                          std::uint32_t round, std::uint32_t sequence);

 private:
  Aes128 cipher_;
};

}  // namespace mpciot::crypto
