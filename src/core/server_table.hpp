// Per-server state of one object, at the cost of the servers it touched.
//
// Algorithm 1 keeps E_j and K_j only for servers that hold or held a
// copy, and OPTL needs only the last request time at requested servers,
// yet a fleet may hold thousands of servers while an object touches a
// few. A ServerTable<T> keeps a component's entries sorted by server id
// in one block while the object has touched few servers; once doubling
// that block would reach half the fleet it switches to a direct-indexed
// array of the whole fleet, which is then smaller than the sorted block
// would be. Capacities double from 2, so at 10 servers the switch comes
// with the 5th touched server and at 100 servers with the 33rd.
//
// An untouched server reads as T{}: T's default member initializers are
// the component's untouched default. In the direct-indexed mode every
// server has an entry and untouched ones hold T{}. Iteration visits the
// entries in ascending server id, so a loop that walked servers
// 0..n−1 and skipped untouched ones sees the same sequence in both
// modes.
//
// A checkpoint record holds the touched entries only: their count, then
// each one's server id and encoding, in ascending server id (count and
// ids as varints). Entries whose encoding equals T{}'s are not written,
// and load() rejects them, so every record it accepts re-encodes to its
// own bytes. Records of snapshot versions 1–4 listed every server of the
// fleet; load() reads those too and keeps only the entries that differ
// from T{}. T provides the encoding, and decodes both versions of it:
//
//   void save(StateWriter& out) const;
//   void load(StateReader& in);   // in.legacy(): the version-4 layout
//
// T must be trivially copyable: entries move with memcpy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "checkpoint/state_io.hpp"
#include "util/check.hpp"

namespace repl {

template <class T>
class ServerTable {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  ServerTable() = default;
  ~ServerTable() { release(); }
  ServerTable(const ServerTable& other)
      : size_(other.size_), capacity_(other.capacity_) {
    if (other.block_ != nullptr) {
      const std::size_t bytes = other.block_bytes();
      block_ = ::operator new(bytes);
      std::memcpy(block_, other.block_, bytes);
    }
  }
  ServerTable(ServerTable&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  ServerTable& operator=(ServerTable other) noexcept {
    std::swap(block_, other.block_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }

  /// Forgets every entry: each server reads as untouched again.
  void clear() {
    release();
    size_ = 0;
    capacity_ = 0;
  }

  /// The entry of `server`, or null when the object has not touched it.
  T* find(int server) {
    const auto s = static_cast<std::uint32_t>(server);
    if (direct()) return s < size_ ? values() + s : nullptr;
    const std::uint32_t i = lower_bound(s);
    return i < size_ && ids()[i] == s ? values() + i : nullptr;
  }
  const T* find(int server) const {
    return const_cast<ServerTable*>(this)->find(server);
  }

  /// The value of `server`: its entry, or T{} when untouched.
  T get(int server) const {
    const T* entry = find(server);
    return entry != nullptr ? *entry : T{};
  }

  /// The entry of `server` in a fleet of `fleet` servers, inserted as T{}
  /// when untouched. Invalidates pointers to other entries.
  T& touch(int server, int fleet) {
    REPL_CHECK(server >= 0 && server < fleet);
    const auto s = static_cast<std::uint32_t>(server);
    if (direct()) {
      if (s >= size_) become_direct(fleet);
      return values()[s];
    }
    const std::uint32_t i = lower_bound(s);
    if (i < size_ && ids()[i] == s) return values()[i];
    if (size_ == capacity_) {
      const std::uint32_t grown = capacity_for(size_ + 1, fleet);
      if (grown == kDirect) {
        become_direct(fleet);
        return values()[s];
      }
      regrow(grown);
    }
    std::uint32_t* id = ids();
    T* value = values();
    std::memmove(id + i + 1, id + i, (size_ - i) * sizeof(std::uint32_t));
    std::memmove(static_cast<void*>(value + i + 1), value + i,
                 (size_ - i) * sizeof(T));
    id[i] = s;
    ::new (static_cast<void*>(value + i)) T{};
    ++size_;
    return value[i];
  }

  /// Calls f(server, entry) for every entry, in ascending server id.
  template <class F>
  void for_each(F&& f) {
    T* value = values();
    for (std::uint32_t i = 0; i < size_; ++i) {
      f(static_cast<int>(direct() ? i : ids()[i]), value[i]);
    }
  }
  template <class F>
  void for_each(F&& f) const {
    const_cast<ServerTable*>(this)->for_each(
        [&f](int server, const T& entry) { f(server, entry); });
  }

  /// Writes the record: the count of entries that differ from T{}, then
  /// each one's server id and encoding, in ascending server id.
  void save(StateWriter& out) const {
    const std::vector<unsigned char>& untouched = untouched_encoding();
    const std::size_t count_at = out.size();
    out.u8(0);  // the count, while it fits one byte
    std::uint32_t count = 0;
    for_each([&](int server, const T& entry) {
      const std::size_t start = out.size();
      out.varint(static_cast<std::uint32_t>(server));
      const std::size_t body = out.size();
      entry.save(out);
      if (out.size() - body == untouched.size() &&
          std::memcmp(out.buffer().data() + body, untouched.data(),
                      untouched.size()) == 0) {
        out.truncate(start);
      } else {
        ++count;
      }
    });
    if (count < 0x80) {
      out.set_u8(count_at, static_cast<std::uint8_t>(count));
      return;
    }
    // A count past one varint byte: re-append the entries behind it.
    const std::vector<unsigned char> entries(
        out.buffer().begin() + static_cast<std::ptrdiff_t>(count_at + 1),
        out.buffer().end());
    out.truncate(count_at);
    out.varint(count);
    for (const unsigned char byte : entries) out.u8(byte);
  }

  /// Reads the record save() writes, or a version-4 dense one, for a
  /// fleet of `fleet` servers. The entries are decoded into one block
  /// sized for them (the old block when it fits).
  void load(StateReader& in, int fleet) {
    if (in.legacy()) {
      load_dense(in, fleet);
      return;
    }
    const std::uint32_t kept = in.varint();
    // Each entry takes at least two bytes: its id and its encoding.
    if (kept > static_cast<std::uint32_t>(fleet) || kept > in.remaining() / 2) {
      in.fail("table of " + std::to_string(kept) + " entries exceeds " +
              (kept > static_cast<std::uint32_t>(fleet)
                   ? "the fleet of " + std::to_string(fleet) + " servers"
                   : std::string("the record")));
    }
    const std::vector<unsigned char>& untouched = untouched_encoding();
    reserve(kept, fleet);
    std::int64_t prev = -1;
    for (std::uint32_t i = 0; i < kept; ++i) {
      const std::uint32_t server = in.varint();
      if (server >= static_cast<std::uint32_t>(fleet) ||
          static_cast<std::int64_t>(server) <= prev) {
        in.fail("table entry for server " + std::to_string(server) +
                (server >= static_cast<std::uint32_t>(fleet)
                     ? " outside the fleet of " + std::to_string(fleet)
                     : std::string(" out of ascending order")));
      }
      prev = server;
      const unsigned char* begin = in.cursor();
      T entry{};
      entry.load(in);
      const auto width = static_cast<std::size_t>(in.cursor() - begin);
      if (width == untouched.size() &&
          std::memcmp(begin, untouched.data(), width) == 0) {
        in.fail("table entry for server " + std::to_string(server) +
                " holds the untouched default");
      }
      put(server, entry);
    }
  }

 private:
  static constexpr std::uint32_t kDirect = ~std::uint32_t{0};

  bool direct() const { return capacity_ == kDirect; }

  /// The capacity that holds `entries`: powers of two from 2 while twice
  /// the capacity stays below the fleet, kDirect past that.
  static std::uint32_t capacity_for(std::uint32_t entries, int fleet) {
    std::uint64_t capacity = 2;
    while (capacity < entries) capacity *= 2;
    return 2 * capacity >= static_cast<std::uint64_t>(fleet)
               ? kDirect
               : static_cast<std::uint32_t>(capacity);
  }

  /// Sparse blocks hold the values, then the ids.
  static std::size_t ids_offset(std::uint32_t capacity) {
    const std::size_t bytes = capacity * sizeof(T);
    return (bytes + alignof(std::uint32_t) - 1) &
           ~(alignof(std::uint32_t) - 1);
  }
  static std::size_t sparse_bytes(std::uint32_t capacity) {
    return ids_offset(capacity) + capacity * sizeof(std::uint32_t);
  }
  std::size_t block_bytes() const {
    return direct() ? size_ * sizeof(T) : sparse_bytes(capacity_);
  }

  T* values() const { return static_cast<T*>(block_); }
  std::uint32_t* ids() const {
    return reinterpret_cast<std::uint32_t*>(static_cast<char*>(block_) +
                                            ids_offset(capacity_));
  }
  std::uint32_t lower_bound(std::uint32_t server) const {
    const std::uint32_t* id = ids();
    return static_cast<std::uint32_t>(std::lower_bound(id, id + size_,
                                                       server) -
                                      id);
  }

  /// Moves the sparse entries into a block of `capacity`.
  void regrow(std::uint32_t capacity) {
    void* block = ::operator new(sparse_bytes(capacity));
    if (size_ > 0) {
      std::memcpy(block, block_, size_ * sizeof(T));
      std::memcpy(static_cast<char*>(block) + ids_offset(capacity), ids(),
                  size_ * sizeof(std::uint32_t));
    }
    release();
    block_ = block;
    capacity_ = capacity;
  }

  /// Moves the entries into a direct-indexed array of `fleet` servers.
  void become_direct(int fleet) {
    const auto n = static_cast<std::uint32_t>(fleet);
    T* value = static_cast<T*>(::operator new(n * sizeof(T)));
    std::uninitialized_fill_n(value, n, T{});
    if (direct()) {
      std::memcpy(static_cast<void*>(value), values(), size_ * sizeof(T));
    } else {
      for (std::uint32_t i = 0; i < size_; ++i) value[ids()[i]] = values()[i];
    }
    release();
    block_ = value;
    size_ = n;
    capacity_ = kDirect;
  }

  void release() {
    ::operator delete(block_);
    block_ = nullptr;
  }

  /// Empties the table into a block that holds `entries` of a fleet of
  /// `fleet` servers (the old block when it fits).
  void reserve(std::uint32_t entries, int fleet) {
    const std::uint32_t capacity =
        entries == 0 ? 0 : capacity_for(entries, fleet);
    if (capacity == kDirect) {
      const auto n = static_cast<std::uint32_t>(fleet);
      if (!direct() || size_ != n) {
        clear();
        block_ = ::operator new(n * sizeof(T));
        size_ = n;
        capacity_ = kDirect;
      }
      std::uninitialized_fill_n(values(), n, T{});
      return;
    }
    if (direct() || capacity_ < entries) {
      clear();
      if (capacity > 0) regrow(capacity);
    }
    size_ = 0;  // grows as entries decode, so a failed load stays whole
  }

  /// Stores the entry of `server` into a block reserve() prepared,
  /// servers in ascending order.
  void put(std::uint32_t server, const T& entry) {
    if (direct()) {
      values()[server] = entry;
    } else {
      ids()[size_] = server;
      values()[size_++] = entry;
    }
  }

  /// The version-4 record: every server of the fleet, in order.
  void load_dense(StateReader& in, int fleet) {
    const std::vector<unsigned char>& untouched = untouched_encoding();
    std::vector<std::pair<std::uint32_t, T>> kept;
    std::vector<unsigned char> encoding;
    for (int s = 0; s < fleet; ++s) {
      T entry{};
      entry.load(in);
      encoding.clear();
      StateWriter out(encoding);
      entry.save(out);
      if (encoding != untouched) {
        kept.emplace_back(static_cast<std::uint32_t>(s), entry);
      }
    }
    reserve(static_cast<std::uint32_t>(kept.size()), fleet);
    for (const auto& [server, entry] : kept) put(server, entry);
  }

  /// T{}'s encoding, the bytes of an untouched server in the record.
  static const std::vector<unsigned char>& untouched_encoding() {
    static const std::vector<unsigned char> bytes = [] {
      StateWriter out;
      T{}.save(out);
      return out.release();
    }();
    return bytes;
  }

  void* block_ = nullptr;
  std::uint32_t size_ = 0;      // entries; the fleet once direct
  std::uint32_t capacity_ = 0;  // kDirect once direct
};

}  // namespace repl
