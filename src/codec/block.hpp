// Block-framed container: the streaming envelope of the codec subsystem.
//
// A framed stream is a sequence of self-delimiting blocks appended to an
// underlying std::iostream position:
//
//   offset  size  field
//   0       4     body_len    payload bytes that follow the 16-byte frame
//   4       4     aux         caller-defined (e.g. events in the block)
//   8       4     body_crc    CRC-32C over the payload
//   12      4     frame_crc   CRC-32C over the 12 frame bytes above
//   16      --    payload
//
// Two CRCs on purpose: the frame fields get their own, verifiable
// without touching the payload, because skip paths *steer by them* —
// body_len decides how far to seek and aux how many logical items the
// seek covered. A flipped bit in a skipped block's frame would
// otherwise silently misposition every later read (e.g. an event-log
// resume landing N events off its checkpoint offset). So: a bit flip
// anywhere in any frame, or in the payload of a block that is read, is
// detected with a positioned diagnostic (block index + byte offset);
// only the payload bytes of wholly *skipped* blocks go unverified —
// and nothing decodes from those. Truncation inside a frame or payload
// is likewise positioned; a stream that ends exactly at a block
// boundary reads as a clean EOF (whether that is acceptable is the
// caller's protocol decision — the event log cross-checks its header's
// event count).
//
// skip_block() reads only the 16-byte frame (verified) and seeks past
// the payload: consumers that know how many logical items each block
// holds (the aux field) can skip N items in O(blocks) seeks without
// decoding — the contract EventLogReader::skip_events keeps on
// compressed logs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace repl {

/// Sanity cap on one block's payload: a corrupt length field must fail
/// with a diagnostic, not a multi-GB allocation.
inline constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 26;

/// Bytes of the frame that precedes every block payload.
inline constexpr std::size_t kBlockFrameBytes = 16;

/// The steering fields of one parsed frame (the frame CRC is consumed by
/// verification and not carried).
struct BlockFrameHeader {
  std::uint32_t body_len = 0;
  std::uint32_t aux = 0;
  std::uint32_t body_crc = 0;
};

/// Outcome of parse_block_frame: the frame is usable only on kOk.
enum class BlockFrameStatus { kOk, kBadFrameCrc, kImplausibleLength };

/// Encodes the 16-byte frame (including both CRCs) for `payload` into
/// `out`. The shared producer half of the format: BlockWriter and
/// append_block_frame emit identical bytes.
void encode_block_frame(unsigned char* out, std::uint32_t aux,
                        const unsigned char* payload, std::size_t size);

/// Parses and verifies a 16-byte frame. This is the incremental
/// validation entry point: consumers that receive frames in arbitrary
/// byte chunks (the socket front-end) validate each frame the moment its
/// 16 bytes are assembled, before a single payload byte is trusted —
/// exactly the check BlockReader::next_frame applies on files. Returns
/// kOk and fills `frame`, or names what is wrong; `max_body_bytes` caps
/// the advertised payload length.
BlockFrameStatus parse_block_frame(const unsigned char* raw,
                                   BlockFrameHeader& frame,
                                   std::size_t max_body_bytes =
                                       kMaxBlockBytes);

/// Verifies a fully assembled payload against its frame's body CRC.
bool verify_block_payload(const BlockFrameHeader& frame,
                          const unsigned char* payload, std::size_t size);

/// Appends one framed block (frame, then payload) to `out`: the bytes
/// BlockWriter writes, for producers that build a stream in memory.
void append_block_frame(std::vector<unsigned char>& out, std::uint32_t aux,
                        const unsigned char* payload, std::size_t size);

/// Incremental decoder of one socket stream — a fixed-size header, then
/// block frames — fed in whatever chunks recv returns. The event wire
/// (net/wire.hpp) and the cluster control stream (cluster/control.hpp)
/// supply only their header check and what a verified frame means. Each
/// frame is verified before a payload byte is trusted, and each payload
/// before it is handed on. Any violation, here or in a callback's
/// fail(), throws "<name>: <what> (frame F, byte offset O)"; after any
/// exception the decoder is dead and every feed throws.
class BlockStreamDecoder {
 public:
  /// `name` labels the peer in diagnostics. `failed_what` and
  /// `payload_crc_what` (string literals) are the protocol's wording of
  /// a feed after a failure and of a body CRC mismatch.
  BlockStreamDecoder(std::string name, std::size_t header_bytes,
                     std::size_t max_body_bytes, const char* failed_what,
                     const char* payload_crc_what);

  /// Consumes `size` bytes: on_header(raw) once the header is whole, and
  /// on_frame(frame, body, body_size) for every frame completed, which
  /// counts once on_frame returns.
  template <class OnHeader, class OnFrame>
  void feed(const unsigned char* data, std::size_t size,
            OnHeader&& on_header, OnFrame&& on_frame);

  [[noreturn]] void fail(const std::string& what);

  const std::string& name() const { return name_; }
  bool header_done() const { return state_ != State::kHeader; }
  /// True exactly between frames — the only place a peer may close
  /// cleanly; mid-header, mid-frame or mid-payload it is false.
  bool at_boundary() const {
    return state_ == State::kFrame && pending_ == 0;
  }
  std::uint64_t bytes_consumed() const { return offset_; }
  std::uint64_t frames_completed() const { return frames_; }

 private:
  enum class State { kHeader, kFrame, kBody };

  /// Verifies the assembled frame and awaits its payload.
  void finish_frame();
  void await(State state, std::size_t bytes);

  std::string name_;
  std::size_t max_body_bytes_;
  const char* failed_what_;
  const char* payload_crc_what_;
  State state_ = State::kHeader;
  /// Bytes accumulated toward the current header/frame/payload.
  std::vector<unsigned char> buffer_;
  std::size_t pending_ = 0;  // bytes in buffer_
  std::size_t target_;       // bytes needed to advance
  BlockFrameHeader frame_;
  std::uint64_t offset_ = 0;
  std::uint64_t frames_ = 0;
  bool dead_ = false;
};

template <class OnHeader, class OnFrame>
void BlockStreamDecoder::feed(const unsigned char* data, std::size_t size,
                              OnHeader&& on_header, OnFrame&& on_frame) {
  if (dead_) throw std::runtime_error(name_ + ": " + failed_what_);
  try {
    while (size > 0) {
      const std::size_t take = std::min(target_ - pending_, size);
      std::memcpy(buffer_.data() + pending_, data, take);
      pending_ += take;
      data += take;
      size -= take;
      offset_ += take;
      if (pending_ < target_) return;
      if (state_ == State::kHeader) {
        on_header(buffer_.data());
        await(State::kFrame, kBlockFrameBytes);
        continue;
      }
      if (state_ == State::kFrame) {
        finish_frame();
        // A zero-length body completes with its frame: waiting for it
        // would leave at_boundary() false until bytes that never come.
        if (target_ > 0) continue;
      }
      if (!verify_block_payload(frame_, buffer_.data(), pending_)) {
        fail(payload_crc_what_);
      }
      on_frame(frame_, buffer_.data(), pending_);
      ++frames_;
      await(State::kFrame, kBlockFrameBytes);
    }
  } catch (...) {
    dead_ = true;
    throw;
  }
}

/// Appends framed blocks to `out`. The writer does not own the stream
/// and never seeks it; callers interleave their own header writes.
class BlockWriter {
 public:
  /// `name` labels the destination (a path) in error messages.
  BlockWriter(std::ostream& out, std::string name);

  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  /// Frames and writes one block. Throws std::runtime_error on I/O
  /// failure or a payload over kMaxBlockBytes.
  void write_block(std::uint32_t aux, const unsigned char* payload,
                   std::size_t size);
  void write_block(std::uint32_t aux,
                   const std::vector<unsigned char>& payload) {
    write_block(aux, payload.data(), payload.size());
  }

  std::uint64_t blocks_written() const { return blocks_; }

 private:
  std::ostream& out_;
  std::string name_;
  std::uint64_t blocks_ = 0;
};

/// Reads framed blocks from `in`, starting at its current position.
/// Corruption (bad CRC, implausible length, truncation mid-frame or
/// mid-payload) throws std::runtime_error naming the source, the block
/// index, and the byte offset.
class BlockReader {
 public:
  /// `name` labels the source (a path) in error messages; `base_offset`
  /// is the stream position of block 0 (for diagnostics only).
  BlockReader(std::istream& in, std::string name,
              std::uint64_t base_offset = 0);

  BlockReader(const BlockReader&) = delete;
  BlockReader& operator=(const BlockReader&) = delete;

  /// Reads the next frame without consuming its payload; returns false
  /// at a clean EOF (stream ends exactly between blocks). `aux` is the
  /// frame's caller-defined field — enough for a consumer to decide
  /// between read_payload() (decode) and skip_payload() (seek), which
  /// must follow before the next frame. Calling next_frame() again
  /// before consuming returns the same frame.
  bool next_frame(std::uint32_t& aux);

  /// Consumes the pending frame's payload into `payload` (replaced) and
  /// verifies the CRC.
  void read_payload(std::vector<unsigned char>& payload);

  /// Consumes the pending frame's payload with a seek — the payload
  /// bytes are not read or verified (nothing decodes from them; the
  /// frame itself was CRC-verified by next_frame). A payload the stream
  /// cannot cover (truncated final block) throws a positioned error
  /// rather than seeking past EOF.
  void skip_payload();

  /// Conveniences: next_frame + read_payload / skip_payload.
  bool read_block(std::uint32_t& aux, std::vector<unsigned char>& payload);
  bool skip_block(std::uint32_t& aux);

  std::uint64_t blocks_read() const { return blocks_; }

  /// Stream offset of the next unconsumed frame — i.e. the bytes
  /// consumed so far, counted from stream position 0 (the base_offset
  /// prefix included). Feeds decode-rate metrics.
  std::uint64_t bytes_consumed() const { return offset_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  /// Sentinel: the stream end has not been measured yet.
  static constexpr std::uint64_t kUnknownEnd = ~std::uint64_t{0};

  std::istream& in_;
  std::string name_;
  std::uint64_t offset_;  // stream offset of the pending/next frame
  std::uint64_t end_offset_ = kUnknownEnd;  // lazily measured stream end
  std::uint64_t blocks_ = 0;
  bool have_frame_ = false;
  std::uint32_t frame_[4] = {0, 0, 0, 0};
};

}  // namespace repl
