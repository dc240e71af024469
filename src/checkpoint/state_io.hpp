// Byte-level serialization primitives for the checkpoint subsystem.
//
// StateWriter appends fixed-width little-endian fields to a byte buffer;
// StateReader decodes the same fields back with strict bounds checking.
// The encoding mirrors trace/event_log.cpp's conventions: integers
// little-endian, doubles as IEEE-754 binary64 bit patterns (NaN/inf
// round-trip exactly — several simulator fields use them as sentinels),
// strings length-prefixed.
//
// Every stateful component exposes
//
//   void save_state(StateWriter& out) const;
//   void load_state(StateReader& in);
//
// and the two must consume the byte stream symmetrically. Writers always
// emit the current record format; a reader knows the snapshot version
// its bytes were written under (format()), so a component also decodes
// the records older versions wrote. Readers throw std::runtime_error
// with the reader's context label on any underflow or decode mismatch,
// so a corrupt snapshot fails with a diagnostic instead of undefined
// behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace repl {

/// The snapshot version (checkpoint/snapshot.hpp) whose records writers
/// emit. Version-5 records hold the table entries of touched servers
/// only and leave the engine-wide configuration and the per-component
/// server-count and λ cross-checks to the snapshot header; records of
/// versions 1–4 list every server of a table and repeat those checks.
inline constexpr std::uint32_t kStateFormat = 5;

class StateWriter {
 public:
  /// Writes into a buffer of its own.
  StateWriter() : out_(&own_) {}
  /// Appends to `out`, which must outlive the writer: the snapshot
  /// encoder writes a shard's records one after another into one buffer.
  explicit StateWriter(std::vector<unsigned char>& out) : out_(&out) {}
  StateWriter(const StateWriter&) = delete;
  StateWriter& operator=(const StateWriter&) = delete;

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u32) UTF-8 bytes.
  void str(const std::string& v);
  /// Unsigned LEB128 in its shortest form: 7 bits a byte, low bits
  /// first, one byte below 128.
  void varint(std::uint32_t v);

  /// Every byte of the buffer, including what preceded this writer when
  /// it appends to a caller's buffer.
  const std::vector<unsigned char>& buffer() const { return *out_; }
  std::size_t size() const { return out_->size(); }
  /// Overwrites the already written byte at offset `at`.
  void set_u8(std::size_t at, std::uint8_t v) { (*out_)[at] = v; }
  /// Drops every byte past the first `size`.
  void truncate(std::size_t size) { out_->resize(size); }
  /// Moves the encoded bytes out, leaving the buffer empty.
  std::vector<unsigned char> release() { return std::move(*out_); }

 private:
  std::vector<unsigned char> own_;
  std::vector<unsigned char>* out_;
};

/// Decodes a byte span produced by StateWriter. Does not own the bytes;
/// the span must outlive the reader. `context` names the payload (e.g.
/// "object 42") in error messages; `format` is the snapshot version the
/// bytes were written under.
class StateReader {
 public:
  StateReader(const unsigned char* data, std::size_t size,
              std::string context, std::uint32_t format = kStateFormat)
      : data_(data),
        size_(size),
        context_(std::move(context)),
        format_(format) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  bool boolean();
  std::string str();
  /// A varint in its shortest form; a longer spelling of the same value
  /// fails, so every accepted record re-encodes to its own bytes.
  std::uint32_t varint();

  /// The next unread byte.
  const unsigned char* cursor() const { return data_ + pos_; }

  std::size_t remaining() const { return size_ - pos_; }
  const std::string& context() const { return context_; }
  /// Whether the bytes are a record of snapshot version 4 or older:
  /// dense tables, and the cross-checks those versions repeated.
  bool legacy() const { return format_ < 5; }

  /// Fails unless the payload was consumed exactly — trailing bytes mean
  /// the snapshot and the code disagree about the format.
  void expect_end() const;

  /// Raises a decode failure with this reader's context attached.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// The next `n` bytes, consumed; fails if fewer remain.
  const unsigned char* take(std::size_t n);

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
  std::uint32_t format_;
};

/// One table entry (core/server_table.hpp) in a version-5 record: a flag
/// byte, then each field that differs, bit for bit, from its untouched
/// default. Booleans live in the flag byte alone. An entry writes its
/// fields in one fixed order, at most eight of them, and reads them back
/// through EntryReader in the same order.
class EntryWriter {
 public:
  explicit EntryWriter(StateWriter& out) : out_(out), at_(out.size()) {
    out.u8(0);
  }

  void boolean(bool v) { flag(v); }
  void f64(double v, double untouched);
  void i32(std::int32_t v, std::int32_t untouched) {
    if (flag(v != untouched)) out_.i32(v);
  }
  /// Writes the flag byte.
  void end() { out_.set_u8(at_, static_cast<std::uint8_t>(flags_)); }

 private:
  bool flag(bool set);

  StateWriter& out_;
  std::size_t at_;
  unsigned bit_ = 0;
  unsigned flags_ = 0;
};

/// Reads what EntryWriter wrote. A field that is present but holds its
/// default, or a flag past the entry's fields, fails: the encoder never
/// writes either, so every accepted entry re-encodes to its own bytes.
class EntryReader {
 public:
  explicit EntryReader(StateReader& in) : in_(in), flags_(in.u8()) {}

  bool boolean() { return flag(); }
  double f64(double untouched);
  std::int32_t i32(std::int32_t untouched);
  /// Fails on flags past the fields read.
  void end() const;

 private:
  bool flag();

  StateReader& in_;
  unsigned flags_;
  unsigned bit_ = 0;
};

}  // namespace repl
