#include "checkpoint/state_io.hpp"

#include <bit>
#include <stdexcept>

#include "codec/endian.hpp"
#include "util/check.hpp"

namespace repl {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

void StateWriter::u32(std::uint32_t v) {
  const std::size_t at = out_->size();
  out_->resize(at + 4);
  store_le32(out_->data() + at, v);
}

void StateWriter::u64(std::uint64_t v) {
  const std::size_t at = out_->size();
  out_->resize(at + 8);
  store_le64(out_->data() + at, v);
}

void StateWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void StateWriter::str(const std::string& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  out_->insert(out_->end(), v.begin(), v.end());
}

void StateWriter::varint(std::uint32_t v) {
  while (v >= 0x80) {
    out_->push_back(static_cast<unsigned char>(v | 0x80));
    v >>= 7;
  }
  out_->push_back(static_cast<unsigned char>(v));
}

void StateReader::fail(const std::string& what) const {
  throw std::runtime_error("checkpoint: " + context_ + ": " + what);
}

const unsigned char* StateReader::take(std::size_t n) {
  if (size_ - pos_ < n) {
    fail("payload underflow (need " + std::to_string(n) + " bytes at offset " +
         std::to_string(pos_) + " of " + std::to_string(size_) + ")");
  }
  const unsigned char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t StateReader::u8() { return *take(1); }

std::uint32_t StateReader::u32() { return load_le32(take(4)); }

std::uint64_t StateReader::u64() { return load_le64(take(8)); }

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

std::uint32_t StateReader::varint() {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t byte = u8();
    v |= std::uint64_t{byte & 0x7fu} << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift > 0) fail("varint is not in its shortest form");
      if (v > 0xffffffffu) fail("varint exceeds 32 bits");
      return static_cast<std::uint32_t>(v);
    }
    if (shift == 28) fail("varint runs past 5 bytes");
  }
}

void StateReader::expect_end() const {
  if (pos_ != size_) {
    throw std::runtime_error("checkpoint: " + context_ + ": " +
                             std::to_string(size_ - pos_) +
                             " trailing bytes after payload");
  }
}

bool EntryWriter::flag(bool set) {
  REPL_CHECK_MSG(bit_ < 8, "a table entry holds at most eight fields");
  if (set) flags_ |= 1u << bit_;
  ++bit_;
  return set;
}

void EntryWriter::f64(double v, double untouched) {
  if (flag(!same_bits(v, untouched))) out_.f64(v);
}

bool EntryReader::flag() {
  const bool set = ((flags_ >> bit_) & 1u) != 0;
  ++bit_;
  return set;
}

double EntryReader::f64(double untouched) {
  if (!flag()) return untouched;
  const double v = in_.f64();
  if (same_bits(v, untouched)) in_.fail("entry field written at its default");
  return v;
}

std::int32_t EntryReader::i32(std::int32_t untouched) {
  if (!flag()) return untouched;
  const std::int32_t v = in_.i32();
  if (v == untouched) in_.fail("entry field written at its default");
  return v;
}

void EntryReader::end() const {
  if ((flags_ >> bit_) != 0) in_.fail("entry flags past its fields");
}

}  // namespace repl
