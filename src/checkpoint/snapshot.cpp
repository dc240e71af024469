#include "checkpoint/snapshot.hpp"

#include <bit>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "codec/crc32.hpp"
#include "codec/endian.hpp"
#include "codec/word_codec.hpp"
#include "util/check.hpp"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace repl {

namespace {

/// Sanity cap on the spec strings: a corrupt length field must not turn
/// into a multi-GB allocation.
constexpr std::size_t kMaxSpecBytes = std::size_t{1} << 16;

}  // namespace

void sync_path_best_effort(const std::string& path) {
#ifdef __unix__
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);  // best effort: durability, not correctness
    ::close(fd);
  }
#else
  (void)path;
#endif
}

void rename_and_sync_dir(const std::string& tmp, const std::string& path) {
  std::filesystem::rename(tmp, path);
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  sync_path_best_effort(dir.empty() ? "." : dir.string());
}

SnapshotWriter::SnapshotWriter(const std::string& path,
                               const SnapshotHeader& header)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      header_(header) {
  if (!out_) {
    throw std::runtime_error("checkpoint " + path_ +
                             ": cannot open for writing");
  }
  header_.version = SnapshotHeader::kVersion;  // writers always emit v4
  REPL_REQUIRE_MSG(header_.codec == SnapshotHeader::kCodecRaw ||
                       header_.codec == SnapshotHeader::kCodecWord,
                   "unknown snapshot codec " << header_.codec);
  REPL_REQUIRE(header_.policy_spec.size() <= kMaxSpecBytes &&
               header_.predictor_spec.size() <= kMaxSpecBytes);
  std::vector<unsigned char> raw(header_.encoded_size());
  unsigned char* at = raw.data();
  const auto put32 = [&at](std::uint32_t v) {
    store_le32(at, v);
    at += 4;
  };
  const auto put64 = [&at](std::uint64_t v) {
    store_le64(at, v);
    at += 8;
  };
  const auto put_string = [&](const std::string& text) {
    put32(static_cast<std::uint32_t>(text.size()));
    std::memcpy(at, text.data(), text.size());
    at += text.size();
  };
  put64(SnapshotHeader::kMagic);
  put32(SnapshotHeader::kVersion);
  put32(header_.num_servers);
  put64(header_.num_objects);
  put64(header_.events_ingested);
  put64(header_.batches);
  put64(header_.base_seed);
  put64(std::bit_cast<std::uint64_t>(header_.last_batch_time));
  put32(header_.flags);
  put32(0);  // reserved
  // Version-2 extension: log binding + component specs.
  put64(header_.log_hash);
  put64(header_.log_num_objects);
  put64(header_.log_num_events);
  put_string(header_.policy_spec);
  put_string(header_.predictor_spec);
  // Version-3 extension: the object-record payload codec.
  put32(header_.codec);
  // Version-4 extension: the slice, then the CRC sealing the header.
  put32(header_.partition_id);
  put32(header_.num_partitions);
  put32(header_.pf_version);
  put32(crc32c(raw.data(), raw.size() - 4));
  out_.write(reinterpret_cast<const char*>(raw.data()),
             static_cast<std::streamsize>(raw.size()));
  if (!out_) throw std::runtime_error("checkpoint " + path_ + ": header write failed");
  bytes_written_ = header_.encoded_size();
  open_ = true;
}

SnapshotWriter::~SnapshotWriter() = default;

void SnapshotWriter::add_object(std::uint64_t object_id,
                                const std::vector<unsigned char>& payload) {
  REPL_CHECK_MSG(open_, "add_object after close()");
  REPL_CHECK_MSG(objects_written_ < header_.num_objects,
                 "more object records than the header promises");
  REPL_CHECK_MSG(objects_written_ == 0 || object_id > last_id_,
                 "object records must have strictly increasing ids");
  REPL_REQUIRE_MSG(payload.size() <= SnapshotHeader::kMaxRecordBytes,
                   "object record of " << payload.size()
                                       << " bytes exceeds the record cap");
  last_id_ = object_id;
  ++objects_written_;

  const std::vector<unsigned char>* encoded = &payload;
  std::vector<unsigned char> packed;
  if (header_.codec == SnapshotHeader::kCodecWord) {
    packed = word_pack(payload);
    encoded = &packed;
  }
  // Guaranteed by the codec's expansion bound given the raw cap above;
  // anything this writer emits must pass the reader's length checks.
  REPL_CHECK(encoded->size() <= SnapshotHeader::kMaxEncodedRecordBytes);
  unsigned char prefix[20];
  store_le64(prefix, object_id);
  store_le32(prefix + 8, static_cast<std::uint32_t>(encoded->size()));
  store_le32(prefix + 12, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = crc32c_update(crc32c_init(), prefix, 16);
  crc = crc32c_final(crc32c_update(crc, encoded->data(), encoded->size()));
  store_le32(prefix + 16, crc);
  out_.write(reinterpret_cast<const char*>(prefix), sizeof(prefix));
  out_.write(reinterpret_cast<const char*>(encoded->data()),
             static_cast<std::streamsize>(encoded->size()));
  if (!out_) {
    throw std::runtime_error("checkpoint " + path_ + ": record write failed");
  }
  bytes_written_ += sizeof(prefix) + encoded->size();
}

void SnapshotWriter::close() {
  REPL_CHECK_MSG(open_, "close() called twice");
  open_ = false;
  REPL_CHECK_MSG(objects_written_ == header_.num_objects,
                 "snapshot holds " << objects_written_
                                   << " object records, header promises "
                                   << header_.num_objects);
  unsigned char footer[8];
  store_le64(footer, SnapshotHeader::kFooterMagic);
  out_.write(reinterpret_cast<const char*>(footer), sizeof(footer));
  out_.flush();
  if (!out_) throw std::runtime_error("checkpoint " + path_ + ": footer write failed");
  bytes_written_ += sizeof(footer);
  out_.close();
  if (out_.fail()) throw std::runtime_error("checkpoint " + path_ + ": close failed");
  // Push the bytes to stable storage before the caller renames this file
  // over the previous snapshot — otherwise a power loss can persist the
  // rename but not the data, destroying the last good checkpoint.
  sync_path_best_effort(path_);
}

SnapshotReader::SnapshotReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) fail("cannot open for reading");
  // Every header byte read is kept, so a v4 header's CRC can cover it.
  std::vector<unsigned char> raw;
  const auto take = [&](std::size_t n, const std::string& what) {
    const std::size_t at = raw.size();
    raw.resize(at + n);
    in_.read(reinterpret_cast<char*>(raw.data() + at),
             static_cast<std::streamsize>(n));
    if (in_.gcount() != static_cast<std::streamsize>(n)) {
      fail("truncated " + what);
    }
    return raw.data() + at;
  };
  const unsigned char* fixed = take(SnapshotHeader::kSize, "header");
  if (load_le64(fixed) != SnapshotHeader::kMagic) {
    fail("bad magic (not a checkpoint)");
  }
  header_.version = load_le32(fixed + 8);
  if (header_.version == 0 || header_.version > SnapshotHeader::kVersion) {
    fail("unsupported version " + std::to_string(header_.version));
  }
  header_.num_servers = load_le32(fixed + 12);
  header_.num_objects = load_le64(fixed + 16);
  header_.events_ingested = load_le64(fixed + 24);
  header_.batches = load_le64(fixed + 32);
  header_.base_seed = load_le64(fixed + 40);
  header_.last_batch_time = std::bit_cast<double>(load_le64(fixed + 48));
  header_.flags = load_le32(fixed + 56);
  if (header_.version >= 2) {
    const unsigned char* ext =
        take(SnapshotHeader::kExtensionSize, "header extension");
    header_.log_hash = load_le64(ext);
    header_.log_num_objects = load_le64(ext + 8);
    header_.log_num_events = load_le64(ext + 16);
    const auto read_string = [&](std::string& text, const std::string& what) {
      const std::uint32_t len = load_le32(take(4, what + " length"));
      if (len > kMaxSpecBytes) {
        fail("implausible " + what + " length " + std::to_string(len));
      }
      const unsigned char* bytes = take(len, what);
      text.assign(reinterpret_cast<const char*>(bytes), len);
    };
    read_string(header_.policy_spec, "policy spec");
    read_string(header_.predictor_spec, "predictor spec");
  }
  if (header_.version >= 3) {
    header_.codec = load_le32(take(4, "codec field"));
  }
  if (header_.version >= 4) {
    const unsigned char* slice =
        take(SnapshotHeader::kSliceSize, "slice and header CRC");
    header_.partition_id = load_le32(slice);
    header_.num_partitions = load_le32(slice + 4);
    header_.pf_version = load_le32(slice + 8);
    if (load_le32(slice + 12) != crc32c(raw.data(), raw.size() - 4)) {
      fail("header CRC mismatch");
    }
  }
  if (header_.num_servers == 0) fail("zero num_servers");
  if (header_.codec != SnapshotHeader::kCodecRaw &&
      header_.codec != SnapshotHeader::kCodecWord) {
    fail("unknown object-record codec " + std::to_string(header_.codec));
  }
}

SnapshotHeader read_snapshot_header(const std::string& path) {
  return SnapshotReader(path).header();
}

void SnapshotReader::fail(const std::string& what) const {
  throw std::runtime_error("checkpoint " + path_ + ": " + what);
}

void SnapshotReader::read_exact(void* dst, std::size_t n, const char* what) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (in_.gcount() != static_cast<std::streamsize>(n)) {
    fail(std::string("truncated ") + what + " after " +
         std::to_string(objects_read_) + " of " +
         std::to_string(header_.num_objects) + " object records");
  }
}

bool SnapshotReader::next_object(std::uint64_t& object_id,
                                 std::vector<unsigned char>& payload) {
  if (objects_read_ == header_.num_objects) {
    if (!footer_checked_) {
      unsigned char footer[8];
      read_exact(footer, sizeof(footer), "footer");
      if (load_le64(footer) != SnapshotHeader::kFooterMagic) {
        fail("bad footer magic (snapshot not sealed)");
      }
      // Bytes after the footer mean the file is not what the header
      // claims — reject rather than silently ignore.
      if (in_.peek() != std::ifstream::traits_type::eof()) {
        fail("trailing bytes after footer");
      }
      footer_checked_ = true;
    }
    return false;
  }
  if (header_.version < 3) {
    unsigned char prefix[12];
    read_exact(prefix, sizeof(prefix), "record prefix");
    object_id = load_le64(prefix);
    if (objects_read_ > 0 && object_id <= prev_id_) {
      fail("object ids out of order at record " +
           std::to_string(objects_read_));
    }
    prev_id_ = object_id;
    const std::uint32_t len = load_le32(prefix + 8);
    if (len > SnapshotHeader::kMaxRecordBytes) {
      fail("implausible record length in record " +
           std::to_string(objects_read_) + " (object " +
           std::to_string(object_id) + ")");
    }
    payload.resize(len);
    if (len > 0) read_exact(payload.data(), len, "record payload");
    ++objects_read_;
    return true;
  }

  unsigned char prefix[20];
  read_exact(prefix, sizeof(prefix), "record prefix");
  object_id = load_le64(prefix);
  if (objects_read_ > 0 && object_id <= prev_id_) {
    fail("object ids out of order at record " +
         std::to_string(objects_read_));
  }
  prev_id_ = object_id;
  const std::uint32_t encoded_len = load_le32(prefix + 8);
  const std::uint32_t raw_len = load_le32(prefix + 12);
  const std::uint32_t expected_crc = load_le32(prefix + 16);
  // Reject implausible lengths before any allocation: a corrupt length
  // field must surface as this diagnostic, not a multi-GB resize (the
  // CRC check that would catch it runs after the payload is read).
  if (encoded_len > SnapshotHeader::kMaxEncodedRecordBytes ||
      raw_len > SnapshotHeader::kMaxRecordBytes) {
    fail("implausible record length in record " +
         std::to_string(objects_read_) + " (object " +
         std::to_string(object_id) + ")");
  }
  // Raw records decode straight into the caller's buffer; only the word
  // codec needs the encoded scratch (restore is a hot path — no copy).
  const bool packed = header_.codec == SnapshotHeader::kCodecWord;
  std::vector<unsigned char>& target = packed ? encoded_ : payload;
  target.resize(encoded_len);
  if (encoded_len > 0) {
    read_exact(target.data(), encoded_len, "record payload");
  }
  std::uint32_t crc = crc32c_update(crc32c_init(), prefix, 16);
  crc = crc32c_final(crc32c_update(crc, target.data(), target.size()));
  if (crc != expected_crc) {
    fail("CRC mismatch in record " + std::to_string(objects_read_) +
         " (object " + std::to_string(object_id) + ")");
  }
  if (packed) {
    payload = word_unpack(encoded_.data(), encoded_.size(), raw_len,
                          "checkpoint " + path_ + ": record " +
                              std::to_string(objects_read_) + " (object " +
                              std::to_string(object_id) + ")");
  } else if (raw_len != encoded_len) {
    fail("raw record " + std::to_string(objects_read_) +
         " declares mismatched lengths");
  }
  ++objects_read_;
  return true;
}

}  // namespace repl
