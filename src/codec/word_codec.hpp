// Sentinel/run-aware codec for state payloads (checkpoint object
// records).
//
// Checkpoint payloads are StateWriter streams dominated by 64-bit
// fields: doubles that repeat sentinel bit patterns (+inf expiries, NaN
// "never" markers), near-constant doubles (accumulators that move in the
// low mantissa bits), and counters whose high bytes are zero. The codec
// views the payload as little-endian 64-bit words and XORs each against
// the previous word, then drops the XOR's leading zero bytes:
//
//   * a repeated word (sentinel runs, constant fields) XORs to zero and
//     costs half a byte;
//   * a near-constant double XORs to a few low-order bytes;
//   * an unrelated word costs its 8 bytes plus the half-byte tag —
//     the bounded worst case (~6% expansion), there is no pathological
//     blow-up.
//
// Wire format: for each pair of words one control byte (low nibble =
// significant XOR bytes of the first word, high nibble = the second;
// nibbles 9..15 are invalid), followed by the significant bytes of both
// words in order. A final partial word (payload size not a multiple of
// 8) is appended raw. The decoder requires the exact raw size up front
// (the snapshot record stores it), so output never over-allocates and a
// size mismatch is a hard decode error, not silent truncation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace repl {

/// Compresses `size` bytes. Deterministic; never fails.
std::vector<unsigned char> word_pack(const unsigned char* data,
                                     std::size_t size);
inline std::vector<unsigned char> word_pack(
    const std::vector<unsigned char>& data) {
  return word_pack(data.data(), data.size());
}

/// Decompresses an encoded span back to exactly `raw_size` bytes. Throws
/// std::runtime_error (prefixed with `context`) when the encoding is
/// malformed or does not reproduce `raw_size` bytes.
std::vector<unsigned char> word_unpack(const unsigned char* data,
                                       std::size_t size, std::size_t raw_size,
                                       const std::string& context);

}  // namespace repl
