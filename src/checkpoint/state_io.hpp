// Byte-level serialization primitives for the checkpoint subsystem.
//
// StateWriter appends fixed-width little-endian fields to an in-memory
// byte buffer; StateReader decodes the same fields back with strict
// bounds checking. The encoding mirrors trace/event_log.cpp's
// conventions: integers little-endian, doubles as IEEE-754 binary64 bit
// patterns (NaN/inf round-trip exactly — several simulator fields use
// them as sentinels), strings length-prefixed.
//
// Every stateful component exposes
//
//   void save_state(StateWriter& out) const;
//   void load_state(StateReader& in);
//
// and the two must consume the byte stream symmetrically. Readers throw
// std::runtime_error with the reader's context label on any underflow or
// decode mismatch, so a corrupt snapshot fails with a diagnostic instead
// of undefined behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace repl {

class StateWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u32) UTF-8 bytes.
  void str(const std::string& v);

  const std::vector<unsigned char>& buffer() const { return buffer_; }
  std::size_t size() const { return buffer_.size(); }
  /// Moves the encoded bytes out, leaving the writer empty.
  std::vector<unsigned char> release() { return std::move(buffer_); }

 private:
  std::vector<unsigned char> buffer_;
};

/// Decodes a byte span produced by StateWriter. Does not own the bytes;
/// the span must outlive the reader. `context` names the payload (e.g.
/// "object 42") in error messages.
class StateReader {
 public:
  StateReader(const unsigned char* data, std::size_t size,
              std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  bool boolean();
  std::string str();

  /// The next `n` bytes, not consumed; fails like a read if fewer remain.
  const unsigned char* peek(std::size_t n) const;
  /// Consumes `n` bytes unread.
  void skip(std::size_t n) { take(n); }

  std::size_t remaining() const { return size_ - pos_; }
  const std::string& context() const { return context_; }

  /// Fails unless the payload was consumed exactly — trailing bytes mean
  /// the snapshot and the code disagree about the format.
  void expect_end() const;

  /// Raises a decode failure with this reader's context attached.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  const unsigned char* take(std::size_t n) {
    const unsigned char* p = peek(n);
    pos_ += n;
    return p;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace repl
