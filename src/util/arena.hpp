// Object memory: the memory of an engine shard's objects lives and dies
// with its shard.
//
// The engine keeps its state per object, and objects are independent (the
// paper's footnote 1, on which the shard split rests), so an object never
// outlives its shard. Each shard owns an ObjectArena. Its objects'
// components and per-server tables are blocks of that arena, and dropping
// the shard hands back the arena's chunks instead of freeing each block.
//
// An arena carves blocks from fixed chunks of kChunkBytes it requests from
// the heap. Block sizes round up to 8 bytes, and blocks are 8-byte
// aligned. A freed block of up to kMaxSmall bytes goes onto the free list
// of its exact size. An allocation takes a block of its own size, else the
// smallest larger free block split to size (a bitmap over the lists finds
// it without a scan), else the next bytes of the current chunk; a chunk
// tail too short for a request joins the free lists. Reusing split blocks
// matters: a table grows from a 2-entry block to a 4-entry block to a
// direct-indexed array, and the blocks it leaves behind serve smaller
// requests of other tables. A larger block is a heap block the arena links
// and frees with its chunks. An arena serves one thread at a time.
//
// Blocks reach an arena through one thread-local scope. A shard task opens
// an ArenaScope on its shard's arena; inside it, object memory comes from
// that arena: the class-level operator new of ReplicationPolicy, Predictor
// and the simulation's state (allocate_object), and ServerTable's blocks
// (allocate_block). Registry builders, factories and out-of-tree
// components need no change. Outside any scope object memory comes from
// the heap, so a Simulator run, a ParallelRunner task or a test allocates
// as it always did.
//
// A block goes back to the arena it came from:
//   * allocate_object() writes the owning arena (null for the heap) in an
//     8-byte header in front of the object, so deallocate_object() finds
//     the owner wherever the object dies: an ensemble's expert freed by
//     its shared_ptr, a component cloned and dropped inside a shard task.
//   * A table block carries no header. allocate_block() reports whether
//     the block came from an arena and the table keeps that bit; an arena
//     block goes back to the arena of the scope that frees it. The engine
//     frees an object's memory only in its own shard's scope, so that is
//     the owner, and freeing an arena block outside any scope fails a
//     check.
// An engine-built component therefore must not outlive its engine.
//
// Under AddressSanitizer the arena poisons free-list blocks and the chunk
// bytes it has not handed out, and unpoisons a block as it hands it out,
// so a stale pointer into a freed block (a table that has since grown)
// still fails.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define REPL_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define REPL_ARENA_ASAN 1
#endif
#endif
#ifdef REPL_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace repl {

class ObjectArena {
 public:
  /// Bytes of one chunk, as requested from the heap (with malloc's 8-byte
  /// header, one 4 KiB heap block). Small and fixed: every shard leaves
  /// part of its last chunk unused, so larger or growing chunks would
  /// leave more bytes per object idle on a workload with few objects per
  /// shard.
  static constexpr std::size_t kChunkBytes = 4096 - 8;
  /// Block alignment and size granule.
  static constexpr std::size_t kAlign = 8;
  /// Largest block carved from chunks; larger ones are heap blocks.
  static constexpr std::size_t kMaxSmall = 512;

  ObjectArena() = default;
  ~ObjectArena() { release(); }
  ObjectArena(const ObjectArena&) = delete;
  ObjectArena& operator=(const ObjectArena&) = delete;

  void* allocate(std::size_t bytes) {
    const std::size_t size = round_up(bytes);
    if (size > kMaxSmall) return allocate_large(bytes);
    char* block = take(size);
    unpoison(block, bytes);
    return block;
  }

  /// Returns a block of `bytes` (the size it was allocated with).
  void deallocate(void* block, std::size_t bytes) {
    if (releasing_) return;
    const std::size_t size = round_up(bytes);
    if (size > kMaxSmall) {
      free_large(block, bytes);
    } else {
      give(static_cast<char*>(block), size);
    }
  }

  /// Until release(), deallocate() keeps nothing: the blocks go back with
  /// their chunks. Lets a shard destroy its objects without touching the
  /// free lists.
  void begin_release() { releasing_ = true; }

  /// Hands every chunk and large block back to the heap. Every block is
  /// invalid afterwards; the arena may serve again.
  void release() {
    while (large_ != nullptr) {
      Large* next = large_->next;
      ::operator delete(large_);
      large_ = next;
    }
    while (chunks_ != nullptr) {
      Chunk* next = chunks_->next;
      unpoison(chunks_, kChunkBytes);
      ::operator delete(chunks_);
      chunks_ = next;
    }
    heads_ = nullptr;
    nonempty_ = 0;
    top_ = end_ = nullptr;
    bytes_ = 0;
    releasing_ = false;
  }

  /// Bytes held: whole chunks plus large blocks with their links.
  std::size_t bytes() const { return bytes_; }

 private:
  /// One free list per size: kAlign, 2·kAlign, ..., kMaxSmall.
  static constexpr std::size_t kClasses = kMaxSmall / kAlign;
  static_assert(kClasses == 64, "one bit of nonempty_ per free list");
  static_assert(kChunkBytes % kAlign == 0);

  struct Chunk {
    Chunk* next;
  };
  /// In front of a large block; 16 bytes keep the block as aligned as
  /// the heap's.
  struct Large {
    Large* prev;
    Large* next;
  };

  static std::size_t round_up(std::size_t bytes) {
    return bytes == 0 ? kAlign : (bytes + kAlign - 1) & ~(kAlign - 1);
  }
  static unsigned list_of(std::size_t size) {
    return static_cast<unsigned>(size / kAlign - 1);
  }

  /// A block of exactly `size` bytes (a kAlign multiple ≤ kMaxSmall).
  char* take(std::size_t size) {
    const unsigned list = list_of(size);
    if ((nonempty_ >> list) & 1u) return pop(list);
    // Best fit: the smallest larger free block, split to size.
    if (const std::uint64_t larger = nonempty_ & (~std::uint64_t{1} << list)) {
      const auto from = static_cast<unsigned>(std::countr_zero(larger));
      char* block = pop(from);
      give(block + size, (from - list) * kAlign);
      return block;
    }
    if (static_cast<std::size_t>(end_ - top_) < size) new_chunk();
    char* block = top_;
    top_ += size;
    return block;
  }

  char* pop(unsigned list) {
    char* block = heads_[list];
    unpoison(block, sizeof(char*));
    char* next = nullptr;
    std::memcpy(&next, block, sizeof next);
    heads_[list] = next;
    if (next == nullptr) nonempty_ &= ~(std::uint64_t{1} << list);
    return block;
  }

  void give(char* block, std::size_t size) {
    const unsigned list = list_of(size);
    unpoison(block, sizeof(char*));
    std::memcpy(block, &heads_[list], sizeof(char*));
    heads_[list] = block;
    nonempty_ |= std::uint64_t{1} << list;
    poison(block, size);
  }

  /// Starts a chunk; the current one's tail joins the free lists (it is
  /// shorter than the request that did not fit, so at most kMaxSmall).
  void new_chunk() {
    char* chunk = static_cast<char*>(::operator new(kChunkBytes));
    if (top_ != end_) give(top_, static_cast<std::size_t>(end_ - top_));
    chunks_ = ::new (chunk) Chunk{chunks_};
    bytes_ += kChunkBytes;
    top_ = chunk + sizeof(Chunk);
    end_ = chunk + kChunkBytes;
    if (heads_ == nullptr) {
      // The first chunk holds the list heads, so an arena that never
      // allocates costs its few fields only.
      std::memset(top_, 0, kClasses * sizeof(char*));
      heads_ = reinterpret_cast<char**>(top_);
      top_ += kClasses * sizeof(char*);
    }
    poison(top_, static_cast<std::size_t>(end_ - top_));
  }

  void* allocate_large(std::size_t bytes) {
    auto* link = static_cast<Large*>(::operator new(sizeof(Large) + bytes));
    ::new (link) Large{nullptr, large_};
    if (large_ != nullptr) large_->prev = link;
    large_ = link;
    bytes_ += sizeof(Large) + bytes;
    return link + 1;
  }

  void free_large(void* block, std::size_t bytes) {
    Large* link = static_cast<Large*>(block) - 1;
    (link->prev != nullptr ? link->prev->next : large_) = link->next;
    if (link->next != nullptr) link->next->prev = link->prev;
    bytes_ -= sizeof(Large) + bytes;
    ::operator delete(link);
  }

  static void poison([[maybe_unused]] const void* at,
                     [[maybe_unused]] std::size_t bytes) {
#ifdef REPL_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(at, bytes);
#endif
  }
  static void unpoison([[maybe_unused]] const void* at,
                       [[maybe_unused]] std::size_t bytes) {
#ifdef REPL_ARENA_ASAN
    ASAN_UNPOISON_MEMORY_REGION(at, bytes);
#endif
  }

  /// kClasses list heads, carved from the first chunk; null before it.
  char** heads_ = nullptr;
  /// Bit i set: free list i is non-empty.
  std::uint64_t nonempty_ = 0;
  /// The current chunk's unused bytes.
  char* top_ = nullptr;
  char* end_ = nullptr;
  Chunk* chunks_ = nullptr;
  Large* large_ = nullptr;
  std::size_t bytes_ = 0;
  bool releasing_ = false;
};

/// Names the arena object memory comes from on this thread while it is
/// open. Scopes nest; closing one restores the enclosing scope.
class ArenaScope {
 public:
  explicit ArenaScope(ObjectArena& arena) : enclosing_(current_) {
    current_ = &arena;
  }
  ~ArenaScope() { current_ = enclosing_; }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// The open scope's arena; null outside any scope.
  static ObjectArena* current() { return current_; }

 private:
  static inline constinit thread_local ObjectArena* current_ = nullptr;
  ObjectArena* enclosing_;
};

/// Storage for one object of a class whose operator new routes here: a
/// block of the scope's arena behind an owner header, or outside any
/// scope a heap block with the header in front of a 16-byte-aligned
/// object. Inside a scope the object is 8-byte aligned.
inline void* allocate_object(std::size_t bytes) {
  ObjectArena* owner = ArenaScope::current();
  if (owner == nullptr) {
    auto* block = static_cast<char*>(::operator new(bytes + 16));
    std::memcpy(block + 8, &owner, sizeof owner);
    return block + 16;
  }
  auto* block = static_cast<char*>(owner->allocate(bytes + 8));
  std::memcpy(block, &owner, sizeof owner);
  return block + 8;
}

/// Returns an allocate_object() block of `bytes` to its owner.
inline void deallocate_object(void* object, std::size_t bytes) {
  if (object == nullptr) return;
  auto* at = static_cast<char*>(object);
  ObjectArena* owner = nullptr;
  std::memcpy(&owner, at - 8, sizeof owner);
  if (owner == nullptr) {
    ::operator delete(at - 16);
  } else {
    owner->deallocate(at - 8, bytes + 8);
  }
}

/// A block for a per-server table and where it came from.
struct ScopedBlock {
  void* at = nullptr;
  bool in_arena = false;
};

/// A block of `bytes` from the scope's arena, or from the heap outside any
/// scope.
inline ScopedBlock allocate_block(std::size_t bytes) {
  if (ObjectArena* arena = ArenaScope::current()) {
    return {arena->allocate(bytes), true};
  }
  return {::operator new(bytes), false};
}

/// Returns an allocate_block() block of `bytes`. An arena block goes back
/// to the scope's arena, which must be the one it came from.
inline void deallocate_block(void* at, std::size_t bytes, bool in_arena) {
  if (!in_arena) {
    ::operator delete(at);
    return;
  }
  ObjectArena* arena = ArenaScope::current();
  REPL_CHECK_MSG(arena != nullptr,
                 "an arena block freed outside its shard's scope");
  arena->deallocate(at, bytes);
}

}  // namespace repl
