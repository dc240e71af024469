#include "checkpoint/snapshot.hpp"

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "codec/crc32.hpp"
#include "codec/endian.hpp"
#include "codec/word_codec.hpp"
#include "util/check.hpp"

#include <fcntl.h>
#include <unistd.h>

namespace repl {

namespace {

/// Pending writer bytes past this go to the file in one write.
constexpr std::size_t kWriteBlockBytes = std::size_t{1} << 20;

/// The engine spec's largest legal size for `num_servers` servers: two
/// capped names, λ, the initial server and one rate per server.
std::uint64_t max_engine_spec_size(std::uint32_t num_servers) {
  return 2 * (4 + std::uint64_t{SnapshotHeader::kMaxSpecBytes}) + 12 +
         8 * std::uint64_t{num_servers};
}

}  // namespace

void sync_path_best_effort(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);  // best effort: durability, not correctness
    ::close(fd);
  }
}

void rename_and_sync_dir(const std::string& tmp, const std::string& path) {
  std::filesystem::rename(tmp, path);
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  sync_path_best_effort(dir.empty() ? "." : dir.string());
}

void frame_record(std::vector<unsigned char>& out, std::size_t at,
                  std::uint64_t object_id, std::uint32_t codec) {
  const std::size_t payload_at = at + SnapshotHeader::kRecordPrefixSize;
  const std::size_t raw_size = out.size() - payload_at;
  REPL_REQUIRE_MSG(raw_size <= SnapshotHeader::kMaxRecordBytes,
                   "object record of " << raw_size
                                       << " bytes exceeds the record cap");
  if (codec == SnapshotHeader::kCodecWord) {
    const std::vector<unsigned char> packed =
        word_pack(out.data() + payload_at, raw_size);
    out.resize(payload_at);
    out.insert(out.end(), packed.begin(), packed.end());
  }
  // Guaranteed by the codec's expansion bound given the raw cap above;
  // anything this writer emits must pass the reader's length checks.
  const std::size_t encoded_size = out.size() - payload_at;
  REPL_CHECK(encoded_size <= SnapshotHeader::kMaxEncodedRecordBytes);
  unsigned char* prefix = out.data() + at;
  store_le64(prefix, object_id);
  store_le32(prefix + 8, static_cast<std::uint32_t>(encoded_size));
  store_le32(prefix + 12, static_cast<std::uint32_t>(raw_size));
  std::uint32_t crc = crc32c_update(crc32c_init(), prefix, 16);
  crc = crc32c_final(
      crc32c_update(crc, out.data() + payload_at, encoded_size));
  store_le32(prefix + 16, crc);
}

std::uint64_t framed_record_id(const unsigned char* record) {
  return load_le64(record);
}

std::size_t framed_record_size(const unsigned char* record) {
  return SnapshotHeader::kRecordPrefixSize + load_le32(record + 8);
}

SnapshotWriter::SnapshotWriter(const std::string& path,
                               const SnapshotHeader& header)
    : path_(path), header_(header) {
  header_.version = SnapshotHeader::kVersion;  // writers always emit v5
  REPL_REQUIRE_MSG(header_.codec == SnapshotHeader::kCodecRaw ||
                       header_.codec == SnapshotHeader::kCodecWord,
                   "unknown snapshot codec " << header_.codec);
  for (const std::string* text :
       {&header_.policy_spec, &header_.predictor_spec, &header_.policy_name,
        &header_.predictor_name}) {
    REPL_REQUIRE(text->size() <= SnapshotHeader::kMaxSpecBytes);
  }
  REPL_REQUIRE_MSG(header_.storage_rates.empty() ||
                       header_.storage_rates.size() == header_.num_servers,
                   "snapshot header lists " << header_.storage_rates.size()
                                            << " storage rates for "
                                            << header_.num_servers
                                            << " servers");
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    fail("cannot open for writing: " + std::string(std::strerror(errno)));
  }

  StateWriter out(pending_);
  out.u64(SnapshotHeader::kMagic);
  out.u32(SnapshotHeader::kVersion);
  out.u32(header_.num_servers);
  out.u64(header_.num_objects);
  out.u64(header_.events_ingested);
  out.u64(header_.batches);
  out.u64(header_.base_seed);
  out.f64(header_.last_batch_time);
  out.u32(header_.flags);
  out.u32(0);  // reserved
  // Version-2 extension: log binding + component specs.
  out.u64(header_.log_hash);
  out.u64(header_.log_num_objects);
  out.u64(header_.log_num_events);
  out.str(header_.policy_spec);
  out.str(header_.predictor_spec);
  // Version-3 extension: the object-record payload codec.
  out.u32(header_.codec);
  // Version-4 extension: the slice.
  out.u32(header_.partition_id);
  out.u32(header_.num_partitions);
  out.u32(header_.pf_version);
  // Version-5 extension: the engine spec.
  out.u32(static_cast<std::uint32_t>(header_.engine_spec_size()));
  out.str(header_.policy_name);
  out.str(header_.predictor_name);
  out.f64(header_.transfer_cost);
  out.i32(header_.initial_server);
  for (std::uint32_t s = 0; s < header_.num_servers; ++s) {
    out.f64(header_.storage_rates.empty() ? 1.0 : header_.storage_rates[s]);
  }
  // The CRC sealing the header.
  out.u32(crc32c(pending_.data(), pending_.size()));
  REPL_CHECK(pending_.size() == header_.encoded_size());
  bytes_written_ = pending_.size();
  open_ = true;
}

SnapshotWriter::~SnapshotWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void SnapshotWriter::fail(const std::string& what) const {
  throw std::runtime_error("checkpoint " + path_ + ": " + what);
}

void SnapshotWriter::admit(std::uint64_t object_id) {
  REPL_CHECK_MSG(open_, "record added after close()");
  REPL_CHECK_MSG(objects_written_ < header_.num_objects,
                 "more object records than the header promises");
  REPL_CHECK_MSG(objects_written_ == 0 || object_id > last_id_,
                 "object records must have strictly increasing ids");
  last_id_ = object_id;
  ++objects_written_;
}

void SnapshotWriter::add_object(std::uint64_t object_id,
                                const std::vector<unsigned char>& payload) {
  REPL_REQUIRE_MSG(payload.size() <= SnapshotHeader::kMaxRecordBytes,
                   "object record of " << payload.size()
                                       << " bytes exceeds the record cap");
  admit(object_id);
  const std::size_t at = pending_.size();
  pending_.resize(at + SnapshotHeader::kRecordPrefixSize);
  pending_.insert(pending_.end(), payload.begin(), payload.end());
  frame_record(pending_, at, object_id, header_.codec);
  bytes_written_ += pending_.size() - at;
  if (pending_.size() >= kWriteBlockBytes) flush();
}

void SnapshotWriter::add_framed(const unsigned char* record) {
  admit(framed_record_id(record));
  const std::size_t size = framed_record_size(record);
  pending_.insert(pending_.end(), record, record + size);
  bytes_written_ += size;
  if (pending_.size() >= kWriteBlockBytes) flush();
}

void SnapshotWriter::flush() {
  const unsigned char* at = pending_.data();
  std::size_t left = pending_.size();
  while (left > 0) {
    const ::ssize_t written = ::write(fd_, at, left);
    if (written < 0) {
      if (errno == EINTR) continue;
      fail("write failed: " + std::string(std::strerror(errno)));
    }
    at += written;
    left -= static_cast<std::size_t>(written);
  }
  pending_.clear();
}

void SnapshotWriter::seal() {
  REPL_CHECK_MSG(open_, "seal() or close() called twice");
  open_ = false;
  REPL_CHECK_MSG(objects_written_ == header_.num_objects,
                 "snapshot holds " << objects_written_
                                   << " object records, header promises "
                                   << header_.num_objects);
  const std::size_t at = pending_.size();
  pending_.resize(at + 8);
  store_le64(pending_.data() + at, SnapshotHeader::kFooterMagic);
  bytes_written_ += 8;
  flush();
}

void SnapshotWriter::close() {
  if (open_) seal();
  REPL_CHECK_MSG(fd_ >= 0, "close() called twice");
  // Push the bytes to stable storage before the caller renames this file
  // over the previous snapshot — otherwise a power loss can persist the
  // rename but not the data, destroying the last good checkpoint.
  if (::fsync(fd_) != 0) {
    fail("fsync failed: " + std::string(std::strerror(errno)));
  }
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    fail("close failed: " + std::string(std::strerror(errno)));
  }
}

SnapshotReader::SnapshotReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) fail("cannot open for reading");
  in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0, std::ios::beg);
  // Every header byte read is kept, so a v4+ header's CRC can cover it.
  std::vector<unsigned char> raw;
  const auto take = [&](std::size_t n, const std::string& what) {
    const std::size_t at = raw.size();
    if (file_size - at < n) fail("truncated " + what);
    raw.resize(at + n);
    in_.read(reinterpret_cast<char*>(raw.data() + at),
             static_cast<std::streamsize>(n));
    if (in_.gcount() != static_cast<std::streamsize>(n)) {
      fail("truncated " + what);
    }
    return raw.data() + at;
  };
  // A length-prefixed field. A length past the cap, or past the end of
  // the file, is reported with the length itself: either the field is
  // cut short or its length is corrupt.
  const auto take_field = [&](const std::string& what, std::uint64_t cap,
                              std::uint32_t& len) {
    len = load_le32(take(4, what + " length"));
    if (len > cap) {
      fail("implausible " + what + " length " + std::to_string(len));
    }
    return take(len, what + " (spec length " + std::to_string(len) + ")");
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
      std::uint32_t len = 0;
      const unsigned char* bytes =
          take_field(what, SnapshotHeader::kMaxSpecBytes, len);
      text.assign(reinterpret_cast<const char*>(bytes), len);
    };
    read_string(header_.policy_spec, "policy spec");
    read_string(header_.predictor_spec, "predictor spec");
  }
  if (header_.version >= 3) {
    header_.codec = load_le32(take(4, "codec field"));
  }
  std::size_t engine_spec_at = 0;
  std::uint32_t engine_spec_len = 0;
  if (header_.version >= 4) {
    const unsigned char* slice = take(12, "slice");
    header_.partition_id = load_le32(slice);
    header_.num_partitions = load_le32(slice + 4);
    header_.pf_version = load_le32(slice + 8);
    if (header_.version >= 5) {
      const unsigned char* spec =
          take_field("engine spec", max_engine_spec_size(header_.num_servers),
                     engine_spec_len);
      engine_spec_at = static_cast<std::size_t>(spec - raw.data());
    }
    const std::uint32_t crc = load_le32(take(4, "header CRC"));
    if (crc != crc32c(raw.data(), raw.size() - 4)) {
      fail("header CRC mismatch");
    }
  }
  if (header_.num_servers == 0) fail("zero num_servers");
  if (header_.codec != SnapshotHeader::kCodecRaw &&
      header_.codec != SnapshotHeader::kCodecWord) {
    fail("unknown object-record codec " + std::to_string(header_.codec));
  }
  if (header_.version >= 5) {
    // CRC-covered, so only a writer bug can make it malformed.
    try {
      StateReader spec(raw.data() + engine_spec_at, engine_spec_len,
                       "engine spec");
      header_.policy_name = spec.str();
      header_.predictor_name = spec.str();
      header_.transfer_cost = spec.f64();
      header_.initial_server = spec.i32();
      if (spec.remaining() != 8 * std::uint64_t{header_.num_servers}) {
        spec.fail("holds " + std::to_string(spec.remaining()) +
                  " bytes of storage rates for " +
                  std::to_string(header_.num_servers) + " servers");
      }
      header_.storage_rates.resize(header_.num_servers);
      for (double& rate : header_.storage_rates) rate = spec.f64();
    } catch (const std::runtime_error& error) {
      fail(std::string("malformed engine spec (") + error.what() + ")");
    }
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
