#include "checkpoint/state_io.hpp"

#include <bit>
#include <stdexcept>

namespace repl {

void StateWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

void StateWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

void StateWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void StateWriter::str(const std::string& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void StateReader::fail(const std::string& what) const {
  throw std::runtime_error("checkpoint: " + context_ + ": " + what);
}

const unsigned char* StateReader::peek(std::size_t n) const {
  if (size_ - pos_ < n) {
    fail("payload underflow (need " + std::to_string(n) + " bytes at offset " +
         std::to_string(pos_) + " of " + std::to_string(size_) + ")");
  }
  return data_ + pos_;
}

std::uint8_t StateReader::u8() { return *take(1); }

std::uint32_t StateReader::u32() {
  const unsigned char* p = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t StateReader::u64() {
  const unsigned char* p = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

double StateReader::f64() { return std::bit_cast<double>(u64()); }

bool StateReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail("boolean field holds " + std::to_string(v));
  return v == 1;
}

std::string StateReader::str() {
  const std::uint32_t n = u32();
  const unsigned char* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

void StateReader::expect_end() const {
  if (pos_ != size_) {
    throw std::runtime_error("checkpoint: " + context_ + ": " +
                             std::to_string(size_ - pos_) +
                             " trailing bytes after payload");
  }
}

}  // namespace repl
