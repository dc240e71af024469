#include "replay/structure.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#ifdef __unix__
#include <unistd.h>
#endif

#include "checkpoint/snapshot.hpp"
#include "codec/block.hpp"
#include "codec/crc32.hpp"
#include "trace/event_log.hpp"

namespace repl {

std::uint64_t LogImage::items_before(std::size_t count) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count && i < segments.size(); ++i) {
    total += segments[i].items;
  }
  return total;
}

LogImage walk_log_image(const std::vector<unsigned char>& bytes) {
  LogImage image;
  if (bytes.size() < EventLogHeader::kSize) {
    image.tail_offset = 0;
    return image;
  }
  const std::uint64_t magic = load_le64(bytes.data());
  const std::uint32_t version = load_le32(bytes.data() + 8);
  image.version = version;
  image.num_servers = load_le32(bytes.data() + 12);
  image.num_objects = load_le64(bytes.data() + 16);
  image.num_events = load_le64(bytes.data() + 24);
  if (magic != EventLogHeader::kMagic ||
      (version != EventLogHeader::kVersionRaw &&
       version != EventLogHeader::kVersionCompressed)) {
    image.tail_offset = 0;
    return image;
  }
  image.header_ok = true;
  image.header_bytes = EventLogHeader::kSize;
  std::size_t at = image.header_bytes;

  if (version == EventLogHeader::kVersionRaw) {
    while (bytes.size() - at >= EventLogHeader::kRecordSize) {
      SegmentSpan span;
      span.offset = at;
      span.size = EventLogHeader::kRecordSize;
      span.payload_offset = at;
      span.items = 1;
      span.well_formed = true;  // v1 records carry no CRC
      image.segments.push_back(span);
      at += EventLogHeader::kRecordSize;
    }
    image.tail_offset = at;
    return image;
  }

  while (bytes.size() - at >= kBlockFrameBytes) {
    BlockFrameHeader frame;
    if (parse_block_frame(bytes.data() + at, frame) != BlockFrameStatus::kOk) {
      break;
    }
    if (bytes.size() - at - kBlockFrameBytes < frame.body_len) break;
    SegmentSpan span;
    span.offset = at;
    span.size = kBlockFrameBytes + frame.body_len;
    span.payload_offset = at + kBlockFrameBytes;
    span.items = frame.aux;
    span.well_formed = verify_block_payload(
        frame, bytes.data() + span.payload_offset, frame.body_len);
    image.segments.push_back(span);
    at += span.size;
  }
  image.tail_offset = at;
  return image;
}

SnapshotImage walk_snapshot_image(const std::vector<unsigned char>& bytes) {
  SnapshotImage image;
  if (bytes.size() < SnapshotHeader::kSize) return image;
  if (load_le64(bytes.data()) != SnapshotHeader::kMagic) return image;
  const std::uint32_t version = load_le32(bytes.data() + 8);
  image.version = version;
  if (version == 0 || version > SnapshotHeader::kVersion) return image;
  image.num_objects = load_le64(bytes.data() + 16);

  std::size_t header_bytes = SnapshotHeader::kSize;
  if (version >= 2) {
    header_bytes += SnapshotHeader::kExtensionSize;
    // A snapshot truncated inside the extension must walk as
    // header_ok=false; without this guard the subtractions below
    // underflow and read past the buffer.
    if (header_bytes > bytes.size()) return image;
    // Two length-prefixed spec strings, then (v3) the codec word, then
    // (v4) the slice block, (v5) the engine spec, and (v4) the header
    // CRC. Each check below keeps
    // header_bytes <= bytes.size(), so the size_t subtractions cannot
    // underflow.
    for (int spec = 0; spec < 2; ++spec) {
      if (bytes.size() - header_bytes < 4) return image;
      const std::uint32_t len = load_le32(bytes.data() + header_bytes);
      header_bytes += 4;
      if (bytes.size() - header_bytes < len) return image;
      header_bytes += len;
    }
    if (version >= 3) {
      if (bytes.size() - header_bytes < 4) return image;
      header_bytes += 4;
    }
    if (version >= 4) {
      if (bytes.size() - header_bytes < SnapshotHeader::kSliceSize) {
        return image;
      }
      header_bytes += SnapshotHeader::kSliceSize;
      if (version >= 5) {
        // The length-prefixed engine spec sits between the slice and
        // the header CRC.
        const std::uint32_t len =
            load_le32(bytes.data() + header_bytes - 4);
        if (bytes.size() - header_bytes < len) return image;
        header_bytes += len;
        if (bytes.size() - header_bytes < 4) return image;
        header_bytes += 4;
      }
      image.header_crc_ok =
          load_le32(bytes.data() + header_bytes - 4) ==
          crc32c(bytes.data(), header_bytes - 4);
    }
  }
  image.header_ok = true;
  image.header_bytes = header_bytes;

  const std::size_t prefix =
      version >= 3 ? std::size_t{20} : std::size_t{12};
  std::size_t at = header_bytes;
  while (image.records.size() < image.num_objects &&
         bytes.size() - at >= prefix) {
    const std::uint32_t encoded_len = load_le32(bytes.data() + at + 8);
    if (encoded_len > SnapshotHeader::kMaxEncodedRecordBytes) break;
    if (bytes.size() - at - prefix < encoded_len) break;
    SegmentSpan span;
    span.offset = at;
    span.size = prefix + encoded_len;
    span.payload_offset = at + prefix;
    span.items = 1;
    if (version >= 3) {
      const std::uint32_t stored = load_le32(bytes.data() + at + 16);
      std::uint32_t crc = crc32c_init();
      crc = crc32c_update(crc, bytes.data() + at, 16);
      crc = crc32c_update(crc, bytes.data() + span.payload_offset,
                          encoded_len);
      span.well_formed = crc32c_final(crc) == stored;
    } else {
      span.well_formed = true;
    }
    image.records.push_back(span);
    at += span.size;
  }
  image.tail_offset = at;
  if (bytes.size() - at >= 8 &&
      load_le64(bytes.data() + at) == SnapshotHeader::kFooterMagic) {
    image.footer_present = true;
    image.footer_offset = at;
    image.tail_offset = at + 8;
  }
  return image;
}

ControlImage walk_control_image(const std::vector<unsigned char>& bytes) {
  // Layout re-derived from cluster/control.hpp: magic "REPLCCTL",
  // version 1, 4 reserved bytes, then v2-style block frames.
  constexpr std::uint64_t kControlMagic = 0x4c5443434c504552ULL;
  constexpr std::size_t kControlHeaderBytes = 16;
  ControlImage image;
  if (bytes.size() < kControlHeaderBytes) return image;
  if (load_le64(bytes.data()) != kControlMagic ||
      load_le32(bytes.data() + 8) != 1) {
    return image;
  }
  image.header_ok = true;
  image.header_bytes = kControlHeaderBytes;
  std::size_t at = image.header_bytes;
  while (bytes.size() - at >= kBlockFrameBytes) {
    BlockFrameHeader frame;
    if (parse_block_frame(bytes.data() + at, frame) != BlockFrameStatus::kOk) {
      break;
    }
    if (bytes.size() - at - kBlockFrameBytes < frame.body_len) break;
    SegmentSpan span;
    span.offset = at;
    span.size = kBlockFrameBytes + frame.body_len;
    span.payload_offset = at + kBlockFrameBytes;
    span.items = frame.aux & 0x00ffffffu;
    span.well_formed = verify_block_payload(
        frame, bytes.data() + span.payload_offset, frame.body_len);
    image.segments.push_back(span);
    at += span.size;
  }
  image.tail_offset = at;
  return image;
}

void patch_log_event_count(std::vector<unsigned char>& bytes,
                           std::uint64_t num_events) {
  if (bytes.size() < EventLogHeader::kSize) return;
  store_le64(bytes.data() + 24, num_events);
}

void patch_snapshot_object_count(std::vector<unsigned char>& bytes,
                                 std::uint64_t num_objects) {
  if (bytes.size() < SnapshotHeader::kSize) return;
  const SnapshotImage image = walk_snapshot_image(bytes);
  store_le64(bytes.data() + 16, num_objects);
  if (image.header_ok && image.version >= 4 && image.header_crc_ok) {
    const std::size_t crc_at = image.header_bytes - 4;
    store_le32(bytes.data() + crc_at, crc32c(bytes.data(), crc_at));
  }
}

std::vector<unsigned char> frame_block(
    std::uint32_t aux, const std::vector<unsigned char>& body) {
  std::vector<unsigned char> block;
  append_block_frame(block, aux, body.data(), body.size());
  return block;
}

void refresh_frame_crc(std::vector<unsigned char>& bytes, std::size_t offset) {
  if (bytes.size() < kBlockFrameBytes ||
      offset > bytes.size() - kBlockFrameBytes) {
    return;
  }
  store_le32(bytes.data() + offset + 12,
             crc32c(bytes.data() + offset, 12));
}

void refresh_record_crc(std::vector<unsigned char>& bytes,
                        std::size_t offset) {
  if (bytes.size() < 20 || offset > bytes.size() - 20) return;
  const std::uint32_t encoded_len = load_le32(bytes.data() + offset + 8);
  if (bytes.size() - offset - 20 < encoded_len) return;
  std::uint32_t crc = crc32c_init();
  crc = crc32c_update(crc, bytes.data() + offset, 16);
  crc = crc32c_update(crc, bytes.data() + offset + 20, encoded_len);
  store_le32(bytes.data() + offset + 16, crc32c_final(crc));
}

ScratchDir::ScratchDir(const std::string& requested) {
  if (!requested.empty()) {
    dir_ = requested;
    std::filesystem::create_directories(dir_);
    owned_ = false;
    return;
  }
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1);
#ifdef __unix__
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
#else
  const std::uint64_t pid = 0;
#endif
  dir_ = (std::filesystem::temp_directory_path() /
          ("replfixt-" + std::to_string(pid) + "-" + std::to_string(id)))
             .string();
  std::filesystem::create_directories(dir_);
}

ScratchDir::~ScratchDir() {
  if (owned_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

std::string ScratchDir::file(const std::string& basename) const {
  return (std::filesystem::path(dir_) / basename).string();
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write scratch file " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw std::runtime_error("scratch write failed: " + path);
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("read failed: " + path);
  return bytes;
}

}  // namespace repl
