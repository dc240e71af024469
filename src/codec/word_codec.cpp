#include "codec/word_codec.hpp"

#include <stdexcept>

#include "codec/endian.hpp"

namespace repl {

namespace {

/// Number of bytes needed for the XOR once its leading (most
/// significant) zero bytes are dropped: 0 for a repeated word, 8 for an
/// unrelated one.
unsigned significant_bytes(std::uint64_t x) {
  unsigned n = 0;
  while (x != 0) {
    ++n;
    x >>= 8;
  }
  return n;
}

}  // namespace

std::vector<unsigned char> word_pack(const unsigned char* data,
                                     std::size_t size) {
  const std::size_t words = size / 8;
  std::vector<unsigned char> out;
  out.reserve(size / 2 + 16);  // guess; grows to at most ~size * 17/16

  std::uint64_t prev = 0;
  std::size_t w = 0;
  while (w < words) {
    const std::size_t control_pos = out.size();
    out.push_back(0);
    unsigned char control = 0;
    for (int half = 0; half < 2 && w < words; ++half, ++w) {
      const std::uint64_t word = load_le64(data + w * 8);
      std::uint64_t x = word ^ prev;
      prev = word;
      const unsigned n = significant_bytes(x);
      control |= static_cast<unsigned char>(n << (4 * half));
      for (unsigned i = 0; i < n; ++i) {
        out.push_back(static_cast<unsigned char>(x));
        x >>= 8;
      }
    }
    out[control_pos] = control;
  }
  out.insert(out.end(), data + words * 8, data + size);
  return out;
}

std::vector<unsigned char> word_unpack(const unsigned char* data,
                                       std::size_t size, std::size_t raw_size,
                                       const std::string& context) {
  const auto fail = [&context](const std::string& what) -> void {
    throw std::runtime_error(context + ": " + what);
  };
  const std::size_t words = raw_size / 8;
  const std::size_t tail = raw_size % 8;
  std::vector<unsigned char> out;
  out.reserve(raw_size);

  const unsigned char* p = data;
  const unsigned char* const end = data + size;
  std::uint64_t prev = 0;
  std::size_t w = 0;
  while (w < words) {
    if (p == end) fail("word codec input ends before a control byte");
    const unsigned char control = *p++;
    for (int half = 0; half < 2 && w < words; ++half, ++w) {
      const unsigned n = (control >> (4 * half)) & 0x0Fu;
      if (n > 8) fail("word codec control nibble " + std::to_string(n));
      if (static_cast<std::size_t>(end - p) < n) {
        fail("word codec input ends inside a word");
      }
      std::uint64_t x = 0;
      for (unsigned i = 0; i < n; ++i) {
        x |= std::uint64_t{*p++} << (8 * i);
      }
      prev ^= x;
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<unsigned char>(prev >> (8 * i)));
      }
    }
    // An odd word count leaves the final control byte's high nibble
    // unused; the encoder writes it as 0 and the loop above simply
    // stopped at `words`, so nothing to check here.
  }
  if (static_cast<std::size_t>(end - p) != tail) {
    fail("word codec tail holds " + std::to_string(end - p) +
         " bytes, expected " + std::to_string(tail));
  }
  out.insert(out.end(), p, end);
  if (out.size() != raw_size) fail("word codec size mismatch");
  return out;
}

}  // namespace repl
