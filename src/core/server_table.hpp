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
// Checkpoints keep the dense record: save() writes one entry per server
// of the fleet, untouched ones as T{}, and load() keeps only entries
// whose encoding differs from T{}'s. T provides the encoding:
//
//   void save(StateWriter& out) const;   // a fixed number of bytes
//   void load(StateReader& in);
//
// T must be trivially copyable: entries move with memcpy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
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

  /// Calls f(server, value) for every server of the fleet in ascending
  /// id, untouched ones with T{}: the dense view, in one merged pass.
  template <class F>
  void for_each_server(int fleet, F&& f) const {
    const T untouched{};
    const T* value = values();
    std::uint32_t i = 0;
    for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(fleet); ++s) {
      if (direct()) {
        f(static_cast<int>(s), s < size_ ? value[s] : untouched);
      } else if (i < size_ && ids()[i] == s) {
        f(static_cast<int>(s), value[i++]);
      } else {
        f(static_cast<int>(s), untouched);
      }
    }
  }

  /// Writes the dense record: one entry per server of the fleet.
  void save(StateWriter& out, int fleet) const {
    for_each_server(fleet, [&out](int, const T& entry) { entry.save(out); });
  }

  /// Reads the dense record save() writes for a fleet of `fleet`
  /// servers. Entries whose bytes equal T{}'s encoding are not kept; the
  /// others are decoded into one block sized for them (the old block
  /// when it fits).
  void load(StateReader& in, int fleet) {
    const std::vector<unsigned char>& untouched = untouched_encoding();
    const std::size_t width = untouched.size();
    const auto n = static_cast<std::size_t>(fleet);
    const unsigned char* record = in.peek(n * width);
    std::uint32_t kept = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (std::memcmp(record + s * width, untouched.data(), width) != 0) {
        ++kept;
      }
    }

    const std::uint32_t capacity = kept == 0 ? 0 : capacity_for(kept, fleet);
    if (capacity == kDirect) {
      if (!direct() || size_ != n) {
        clear();
        block_ = ::operator new(n * sizeof(T));
        size_ = static_cast<std::uint32_t>(n);
        capacity_ = kDirect;
      }
      std::uninitialized_fill_n(values(), n, T{});
    } else {
      if (direct() || capacity_ < kept) {
        clear();
        if (capacity > 0) regrow(capacity);
      }
      size_ = 0;  // grows as entries decode, so a failed load stays whole
    }

    for (std::size_t s = 0; s < n; ++s) {
      if (std::memcmp(record + s * width, untouched.data(), width) == 0) {
        in.skip(width);
        continue;
      }
      const std::size_t before = in.remaining();
      T entry{};
      entry.load(in);
      if (before - in.remaining() != width) {
        in.fail("server entry of unexpected width");
      }
      if (capacity == kDirect) {
        values()[s] = entry;
      } else {
        ids()[size_] = static_cast<std::uint32_t>(s);
        values()[size_++] = entry;
      }
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
