#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "codec/block.hpp"
#include "net/wire.hpp"
#include "util/check.hpp"

namespace repl {

EventStreamClient::EventStreamClient(Socket sock,
                                     EventStreamClientOptions options)
    : sock_(std::move(sock)), options_(options) {
  REPL_REQUIRE_MSG(options_.block_events > 0, "block_events must be positive");
  pending_.reserve(options_.block_events);
}

EventStreamClient::~EventStreamClient() {
  if (!finished_ && !aborted_ && handshaken_) {
    try {
      finish();
    } catch (...) {
      // Destructor cleanup: the peer may already be gone.
    }
  }
}

std::uint64_t EventStreamClient::handshake(std::uint32_t num_servers) {
  REPL_REQUIRE_MSG(!handshaken_, "handshake already performed");
  unsigned char header[EventLogHeader::kSize];
  encode_stream_header(header, num_servers);
  sock_.write_all(header, sizeof(header));
  unsigned char ack[kNetAckBytes];
  if (!sock_.read_exact(ack, sizeof(ack))) {
    throw std::runtime_error(
        "server closed the connection during handshake (stream rejected?)");
  }
  handshaken_ = true;
  return decode_net_ack(ack);
}

bool EventStreamClient::send(const LogEvent& event) {
  REPL_REQUIRE_MSG(handshaken_, "handshake must precede send");
  if (aborted_) return false;
  pending_.push_back(event);
  ++events_sent_;
  if (pending_.size() >= options_.block_events) return flush();
  return true;
}

bool EventStreamClient::flush() {
  if (aborted_ || pending_.empty()) return !aborted_;
  body_.clear();
  encode_event_block(pending_.data(), pending_.size(), body_);
  frame_.clear();
  append_block_frame(frame_, static_cast<std::uint32_t>(pending_.size()),
                     body_.data(), body_.size());
  pending_.clear();
  return write_paced(frame_.data(), frame_.size());
}

bool EventStreamClient::send_trace(std::uint64_t trace_id,
                                   std::uint64_t span_id) {
  REPL_REQUIRE_MSG(handshaken_, "handshake must precede send_trace");
  if (!flush()) return false;  // keep queued events ahead of the context
  frame_.clear();
  encode_trace_frame(frame_, trace_id, span_id);
  return write_paced(frame_.data(), frame_.size());
}

void EventStreamClient::finish() {
  if (finished_) return;
  finished_ = true;
  if (!flush()) return;  // aborted mid-flush: nothing left to close cleanly
  sock_.shutdown_write();
}

bool EventStreamClient::write_paced(const unsigned char* data,
                                    std::size_t size) {
  const std::size_t chunk =
      options_.chunk_bytes > 0 ? options_.chunk_bytes : size;
  std::size_t sent = 0;
  while (sent < size) {
    std::size_t n = std::min(chunk, size - sent);
    if (options_.abort_after_bytes > 0) {
      const std::uint64_t left = options_.abort_after_bytes - bytes_sent_;
      if (left < n) n = static_cast<std::size_t>(left);
    }
    if (n > 0) {
      sock_.write_all(data + sent, n);
      sent += n;
      bytes_sent_ += n;
    }
    if (options_.abort_after_bytes > 0 &&
        bytes_sent_ >= options_.abort_after_bytes) {
      // The abrupt drop the test asked for: no shutdown handshake, the
      // server sees EOF (or a reset) mid-frame.
      aborted_ = true;
      sock_.close();
      return false;
    }
    if (sent < size && options_.pace_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.pace_seconds));
    }
  }
  return true;
}

}  // namespace repl
