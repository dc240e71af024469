// Lenient structural walkers over the binary formats' byte images.
//
// The structured fuzzer and the fixture minimizer both need to see a
// byte image the way the real decoders do — header, then frames /
// records, then footer — but *without* bailing at the first defect:
// the fuzzer mutates at the boundaries the walk discovers, and the
// minimizer deletes whole segments while keeping the surrounding
// structure consistent. So these walkers parse as far as the bytes
// cooperate, mark each segment well-formed or not, and report where
// decodable structure ends, never throwing on malformed input.
//
// The walkers are deliberately *not* the product decoders: they live on
// the testing side of the fence and re-derive the layouts from the
// format docs (trace/event_log.hpp, checkpoint/snapshot.hpp,
// codec/block.hpp). If the product decoders and these walkers disagree
// about where a boundary lies, that disagreement surfaces as a fuzz
// failure — which is the point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/endian.hpp"

namespace repl {

/// One structural segment (a v1 record, a v2/wire block, a snapshot
/// object record) of a byte image.
struct SegmentSpan {
  /// Absolute byte offset of the segment's first byte.
  std::size_t offset = 0;
  /// Total bytes, frame/prefix included.
  std::size_t size = 0;
  /// Absolute offset of the payload (== offset for prefix-less v1
  /// records).
  std::size_t payload_offset = 0;
  /// Logical items the segment carries (events for log blocks, 1 for
  /// records).
  std::uint64_t items = 0;
  /// Complete and CRC-consistent (vacuously true for formats without a
  /// covering CRC, e.g. v1 records).
  bool well_formed = false;

  std::size_t end() const { return offset + size; }
};

/// Walk of an event-log file image or a wire byte stream (the formats
/// are byte-identical; wire headers just carry unknown counts).
struct LogImage {
  /// Header parsed (magic/version recognized, 32 bytes present).
  bool header_ok = false;
  std::uint32_t version = 0;
  std::uint32_t num_servers = 0;
  std::uint64_t num_objects = 0;
  /// Raw num_events field (kUnknownCount sentinel preserved).
  std::uint64_t num_events = 0;
  /// Bytes before the first segment (EventLogHeader::kSize when
  /// header_ok).
  std::size_t header_bytes = 0;
  /// v1: one span per 20-byte record; v2: one span per block frame.
  std::vector<SegmentSpan> segments;
  /// First byte not covered by the header or a segment (== image size
  /// when the whole image is structured).
  std::size_t tail_offset = 0;

  /// Sum of items over segments [0, count).
  std::uint64_t items_before(std::size_t count) const;
};

LogImage walk_log_image(const std::vector<unsigned char>& bytes);

/// Walk of a snapshot file image (REPLCKPT v1-v5).
struct SnapshotImage {
  bool header_ok = false;
  std::uint32_t version = 0;
  std::uint64_t num_objects = 0;
  /// Full header size including the v2-v5 extensions and spec strings.
  std::size_t header_bytes = 0;
  /// The v4+ header CRC matches (vacuously true before v4).
  bool header_crc_ok = true;
  std::vector<SegmentSpan> records;
  /// Footer magic found immediately after the walked records.
  bool footer_present = false;
  std::size_t footer_offset = 0;
  std::size_t tail_offset = 0;
};

SnapshotImage walk_snapshot_image(const std::vector<unsigned char>& bytes);

/// Walk of a cluster control stream image (REPLCCTL v1: 16-byte header
/// then block frames — the same frame envelope as the v2 event wire,
/// with aux = (message type << 24) | finals-record count).
struct ControlImage {
  /// Header parsed (magic/version recognized, 16 bytes present).
  bool header_ok = false;
  std::size_t header_bytes = 0;
  /// One span per complete frame; items = the frame's declared
  /// finals-record count (0 for every non-finals message type).
  std::vector<SegmentSpan> segments;
  std::size_t tail_offset = 0;
};

ControlImage walk_control_image(const std::vector<unsigned char>& bytes);

/// Rewrites the num_events field of a log/wire image header in place
/// (no-op on images too short to hold a header).
void patch_log_event_count(std::vector<unsigned char>& bytes,
                           std::uint64_t num_events);

/// Rewrites the num_objects field of a snapshot image header in place.
/// A v4+ header whose CRC held is resealed, so the new count reaches the
/// record checks instead of stopping at the header CRC.
void patch_snapshot_object_count(std::vector<unsigned char>& bytes,
                                 std::uint64_t num_objects);

/// Builds a complete framed block — 16-byte frame with both CRCs valid,
/// then the payload — ready to splice into a v2 log or wire stream.
std::vector<unsigned char> frame_block(std::uint32_t aux,
                                       const std::vector<unsigned char>& body);

/// Recomputes the frame CRC of the block frame at `offset` so mutated
/// steering fields (body_len/aux/body_crc) parse as a valid frame again.
/// The body CRC is left alone. No-op when 16 bytes do not fit.
void refresh_frame_crc(std::vector<unsigned char>& bytes, std::size_t offset);

/// Recomputes the per-record CRC of the v3 snapshot record at `offset`
/// (prefix 16 bytes + encoded payload of `encoded_len`). No-op when the
/// record does not fit.
void refresh_record_crc(std::vector<unsigned char>& bytes, std::size_t offset);

/// RAII scratch directory with *stable basenames*: decoder diagnostics
/// embed file paths and failure_signature() keeps the basename, so every
/// run must stage its artifact under the same leaf name. Creates (and,
/// when it picked the location itself, removes) the directory.
class ScratchDir {
 public:
  /// Uses `requested` when non-empty (created, not removed); otherwise a
  /// fresh directory under the system temp dir, removed on destruction.
  explicit ScratchDir(const std::string& requested = "");
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Absolute path of `basename` inside the directory.
  std::string file(const std::string& basename) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  bool owned_ = true;
};

/// Writes `bytes` to `path`, truncating. Throws std::runtime_error on
/// I/O failure.
void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes);

/// Reads all of `path`. Throws std::runtime_error on I/O failure.
std::vector<unsigned char> read_bytes(const std::string& path);

}  // namespace repl
