#include "engine/event_source.hpp"

#include "engine/engine.hpp"
#include "util/check.hpp"

namespace repl {

LogReplaySource::LogReplaySource(EventLogReader& reader,
                                 std::size_t batch_events, bool async_ingest)
    : reader_(reader), batch_events_(batch_events), async_(async_ingest) {
  REPL_REQUIRE(batch_events_ >= 1);
}

LogReplaySource::~LogReplaySource() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void LogReplaySource::attach(StreamingEngine& engine) {
  engine.bind_log(reader_.header());
  engine.seek_to_resume(reader_);
  bytes_delivered_ = reader_.bytes_read();
  if (async_) thread_ = std::thread([this] { run(); });
}

bool LogReplaySource::produce() {
  try {
    reader_.read_batch(spare_, batch_events_);
  } catch (...) {
    // read_batch appends as it decodes, so the slot holds every event
    // that precedes the failure; they are delivered before the error,
    // exactly as a plain read_batch loop would have ingested them.
    error_ = std::current_exception();
  }
  spare_bytes_ = reader_.bytes_read();
  if (spare_.empty()) {
    // The end of the stream: nothing is read into the spare buffer
    // again, so free it now rather than when the source is destroyed.
    spare_ = std::vector<LogEvent>();
    return true;
  }
  return error_ != nullptr;
}

void LogReplaySource::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return !ready_ || stop_; });
    if (stop_) return;
    lock.unlock();
    const bool last = produce();
    lock.lock();
    ready_ = true;
    cv_.notify_one();
    if (last) return;
  }
}

bool LogReplaySource::next_batch(std::vector<LogEvent>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (async_) {
    cv_.wait(lock, [this] { return ready_; });
  } else if (!ready_) {
    produce();
    ready_ = true;
  }
  bytes_delivered_ = spare_bytes_;
  if (spare_.empty()) {
    // The end, or a failure with nothing decoded before it. The slot is
    // kept, so every later call returns false or throws again: a caller
    // never mistakes a failed stream for a drained one.
    if (error_ != nullptr) std::rethrow_exception(error_);
    out.clear();
    return false;
  }
  out.swap(spare_);
  if (error_ != nullptr) {
    // The prefix decoded before the failure goes first; the slot is
    // kept, emptied, and throws from the next call on.
    spare_.clear();
    return true;
  }
  ready_ = false;
  lock.unlock();
  cv_.notify_one();
  return true;
}

}  // namespace repl
