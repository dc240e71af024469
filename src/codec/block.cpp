#include "codec/block.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "codec/crc32.hpp"
#include "codec/endian.hpp"

namespace repl {

void encode_block_frame(unsigned char* out, std::uint32_t aux,
                        const unsigned char* payload, std::size_t size) {
  store_le32(out, static_cast<std::uint32_t>(size));
  store_le32(out + 4, aux);
  store_le32(out + 8, crc32c(payload, size));
  store_le32(out + 12, crc32c(out, 12));  // covers len, aux, body_crc
}

BlockFrameStatus parse_block_frame(const unsigned char* raw,
                                   BlockFrameHeader& frame,
                                   std::size_t max_body_bytes) {
  if (crc32c(raw, 12) != load_le32(raw + 12)) {
    return BlockFrameStatus::kBadFrameCrc;
  }
  frame.body_len = load_le32(raw);
  frame.aux = load_le32(raw + 4);
  frame.body_crc = load_le32(raw + 8);
  if (frame.body_len > max_body_bytes) {
    return BlockFrameStatus::kImplausibleLength;
  }
  return BlockFrameStatus::kOk;
}

bool verify_block_payload(const BlockFrameHeader& frame,
                          const unsigned char* payload, std::size_t size) {
  return size == frame.body_len && crc32c(payload, size) == frame.body_crc;
}

void append_block_frame(std::vector<unsigned char>& out, std::uint32_t aux,
                        const unsigned char* payload, std::size_t size) {
  const std::size_t at = out.size();
  out.resize(at + kBlockFrameBytes);
  encode_block_frame(out.data() + at, aux, payload, size);
  out.insert(out.end(), payload, payload + size);
}

BlockStreamDecoder::BlockStreamDecoder(std::string name,
                                       std::size_t header_bytes,
                                       std::size_t max_body_bytes,
                                       const char* failed_what,
                                       const char* payload_crc_what)
    : name_(std::move(name)),
      max_body_bytes_(max_body_bytes),
      failed_what_(failed_what),
      payload_crc_what_(payload_crc_what),
      buffer_(std::max(header_bytes, kBlockFrameBytes)),
      target_(header_bytes) {}

void BlockStreamDecoder::fail(const std::string& what) {
  dead_ = true;
  throw std::runtime_error(name_ + ": " + what + " (frame " +
                           std::to_string(frames_) + ", byte offset " +
                           std::to_string(offset_) + ")");
}

void BlockStreamDecoder::finish_frame() {
  switch (parse_block_frame(buffer_.data(), frame_, max_body_bytes_)) {
    case BlockFrameStatus::kOk:
      break;
    case BlockFrameStatus::kBadFrameCrc:
      fail("frame CRC mismatch (corrupt frame header)");
    case BlockFrameStatus::kImplausibleLength:
      fail("implausible frame length " + std::to_string(frame_.body_len));
  }
  await(State::kBody, frame_.body_len);
  if (buffer_.size() < target_) buffer_.resize(target_);
}

void BlockStreamDecoder::await(State state, std::size_t bytes) {
  state_ = state;
  pending_ = 0;
  target_ = bytes;
}

BlockWriter::BlockWriter(std::ostream& out, std::string name)
    : out_(out), name_(std::move(name)) {}

void BlockWriter::write_block(std::uint32_t aux, const unsigned char* payload,
                              std::size_t size) {
  if (size > kMaxBlockBytes) {
    throw std::runtime_error(name_ + ": block payload of " +
                             std::to_string(size) + " bytes exceeds the " +
                             std::to_string(kMaxBlockBytes) + "-byte cap");
  }
  unsigned char frame[kBlockFrameBytes];
  encode_block_frame(frame, aux, payload, size);
  out_.write(reinterpret_cast<const char*>(frame), kBlockFrameBytes);
  out_.write(reinterpret_cast<const char*>(payload),
             static_cast<std::streamsize>(size));
  if (!out_) {
    throw std::runtime_error(name_ + ": block write failed at block " +
                             std::to_string(blocks_));
  }
  ++blocks_;
}

BlockReader::BlockReader(std::istream& in, std::string name,
                         std::uint64_t base_offset)
    : in_(in), name_(std::move(name)), offset_(base_offset) {}

void BlockReader::fail(const std::string& what) const {
  throw std::runtime_error(name_ + ": " + what + " (block " +
                           std::to_string(blocks_) + ", byte offset " +
                           std::to_string(offset_) + ")");
}

bool BlockReader::next_frame(std::uint32_t& aux) {
  if (have_frame_) {
    aux = frame_[1];
    return true;
  }
  unsigned char raw[kBlockFrameBytes];
  in_.read(reinterpret_cast<char*>(raw), kBlockFrameBytes);
  const auto got = static_cast<std::size_t>(in_.gcount());
  if (in_.bad()) fail("read failed");
  if (got == 0) return false;  // clean EOF between blocks
  if (got != kBlockFrameBytes) fail("truncated block frame");
  // Verify the frame before anything steers by it: skip paths seek by
  // body_len and count items by aux without ever touching the payload.
  BlockFrameHeader frame;
  switch (parse_block_frame(raw, frame)) {
    case BlockFrameStatus::kBadFrameCrc:
      fail("frame CRC mismatch (corrupt block header)");
    case BlockFrameStatus::kImplausibleLength:
      fail("implausible block length " + std::to_string(load_le32(raw)));
    case BlockFrameStatus::kOk:
      break;
  }
  frame_[0] = frame.body_len;
  frame_[1] = frame.aux;
  frame_[2] = frame.body_crc;
  have_frame_ = true;
  aux = frame_[1];
  return true;
}

void BlockReader::read_payload(std::vector<unsigned char>& payload) {
  if (!have_frame_) fail("read_payload without a pending frame");
  payload.resize(frame_[0]);
  if (frame_[0] > 0) {
    in_.read(reinterpret_cast<char*>(payload.data()), frame_[0]);
    if (in_.gcount() != static_cast<std::streamsize>(frame_[0])) {
      fail("truncated block payload (" + std::to_string(in_.gcount()) +
           " of " + std::to_string(frame_[0]) + " bytes)");
    }
  }
  if (crc32c(payload.data(), payload.size()) != frame_[2]) {
    fail("CRC mismatch (corrupt block)");
  }
  offset_ += kBlockFrameBytes + frame_[0];
  ++blocks_;
  have_frame_ = false;
}

void BlockReader::skip_payload() {
  if (!have_frame_) fail("skip_payload without a pending frame");
  const std::uint64_t target = offset_ + kBlockFrameBytes + frame_[0];
  // A relative seek past EOF "succeeds" on common istream
  // implementations — nothing fails until the next read, which then
  // looks like a clean EOF between blocks. On a truncated final payload
  // that would silently shorten the log (and misposition a resume that
  // skipped over it). Measure the stream end and reject a skip the
  // bytes cannot cover; re-measure when the cached end looks too short,
  // so a log still being appended to is not falsely rejected.
  if (end_offset_ == kUnknownEnd || target > end_offset_) {
    const std::streampos here = in_.tellg();
    in_.seekg(0, std::ios::end);
    if (!in_) fail("seek failed while measuring stream end");
    end_offset_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(here);
    if (!in_) fail("seek failed while measuring stream end");
  }
  if (target > end_offset_) {
    fail("truncated block payload (" +
         std::to_string(end_offset_ - offset_ - kBlockFrameBytes) + " of " +
         std::to_string(frame_[0]) + " bytes before end of stream)");
  }
  in_.seekg(static_cast<std::streamoff>(frame_[0]), std::ios::cur);
  if (!in_) fail("seek past block payload failed");
  offset_ = target;
  ++blocks_;
  have_frame_ = false;
}

bool BlockReader::read_block(std::uint32_t& aux,
                             std::vector<unsigned char>& payload) {
  if (!next_frame(aux)) return false;
  read_payload(payload);
  return true;
}

bool BlockReader::skip_block(std::uint32_t& aux) {
  if (!next_frame(aux)) return false;
  skip_payload();
  return true;
}

}  // namespace repl
