#include "obs/trace.hpp"

#include <time.h>
#include <unistd.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace repl::obs {

namespace {

/// splitmix64: cheap, well-mixed 64-bit permutation for id generation.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

/// SPSC ring: the owning thread pushes (release on head), the flusher —
/// any thread holding Tracer::mu_ — drains [tail, head) (acquire on
/// head, release on tail). The producer only writes slots at and past
/// head, the consumer only reads slots before head, so the slot payload
/// itself is ordered by the head publication.
struct Tracer::ThreadRing {
  static constexpr std::size_t kCapacity = 8192;  // power of two

  std::array<SpanRecord, kCapacity> slots;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::uint32_t tid = 0;

  bool push(const SpanRecord& record) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::uint64_t t = tail.load(std::memory_order_acquire);
    if (h - t == kCapacity) return false;
    slots[h & (kCapacity - 1)] = record;
    head.store(h + 1, std::memory_order_release);
    return true;
  }

  void drain(std::vector<SpanRecord>& out) {
    const std::uint64_t t = tail.load(std::memory_order_relaxed);
    const std::uint64_t h = head.load(std::memory_order_acquire);
    for (std::uint64_t i = t; i != h; ++i) {
      out.push_back(slots[i & (kCapacity - 1)]);
    }
    tail.store(h, std::memory_order_release);
  }
};

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::uint64_t Tracer::now_ns() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t Tracer::next_id() {
  const std::uint64_t n = id_counter_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = mix64(id_salt_ ^ (n + 1));
  return id == 0 ? 1 : id;
}

void Tracer::start(const std::string& path, const std::string& process_name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    throw std::runtime_error("tracer already started (writing " + path_ + ")");
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    throw std::runtime_error("cannot open trace part file " + path);
  }
  file_ = f;
  path_ = path;
  // Salt span ids with the pid so ids minted by different cluster
  // processes never collide in the merged trace.
  id_salt_ = mix64(static_cast<std::uint64_t>(::getpid()) << 32 | 0x7472ULL);
  dropped_.store(0, std::memory_order_relaxed);

  std::string meta = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  meta += std::to_string(::getpid());
  meta += ",\"tid\":0,\"args\":{\"name\":\"";
  meta += json_escape(process_name);
  meta += "\"}}\n";
  std::fwrite(meta.data(), 1, meta.size(), f);
  std::fflush(f);
  enabled_.store(true, std::memory_order_release);
}

Tracer::ThreadRing& Tracer::ring_for_this_thread() {
  thread_local ThreadRing* ring = nullptr;
  if (ring == nullptr) {
    // Rings are owned by the tracer and never freed before process
    // exit: a flusher may drain them after their thread has died.
    auto* fresh = new ThreadRing();
    std::lock_guard<std::mutex> lock(mu_);
    fresh->tid = next_tid_++;
    rings_.push_back(fresh);
    ring = fresh;
  }
  return *ring;
}

void Tracer::record(const SpanRecord& record) {
  if (!enabled()) return;
  ThreadRing& ring = ring_for_this_thread();
  SpanRecord r = record;
  r.tid = ring.tid;
  if (!ring.push(r)) dropped_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void Tracer::flush_locked() {
  if (file_ == nullptr) return;
  auto* f = static_cast<std::FILE*>(file_);
  std::vector<SpanRecord> records;
  for (ThreadRing* ring : rings_) ring->drain(records);
  const int pid = ::getpid();
  char buf[512];
  std::string line;
  for (const SpanRecord& r : records) {
    // Chrome trace_event "complete" event; ts/dur are microseconds.
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":%d,\"tid\":%" PRIu32
        ",\"args\":{\"trace_id\":\"%016" PRIx64 "\",\"span_id\":\"%016" PRIx64
        "\",\"parent_id\":\"%016" PRIx64 "\"",
        r.name == nullptr ? "?" : r.name,
        static_cast<double>(r.start_ns) / 1000.0,
        static_cast<double>(r.dur_ns) / 1000.0, pid, r.tid, r.trace_id,
        r.span_id, r.parent_id);
    if (n < 0) continue;
    line.assign(buf, static_cast<std::size_t>(n));
    if (r.arg_key != nullptr) {
      n = std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRIu64, r.arg_key,
                        r.arg_value);
      if (n > 0) line.append(buf, static_cast<std::size_t>(n));
    }
    line += "}}\n";
    std::fwrite(line.data(), 1, line.size(), f);
  }
  std::fflush(f);
}

void Tracer::stop() {
  enabled_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  flush_locked();
  auto* f = static_cast<std::FILE*>(file_);
  const std::uint64_t dropped = dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) {
    std::string meta = "{\"name\":\"spans_dropped\",\"ph\":\"M\",\"pid\":";
    meta += std::to_string(::getpid());
    meta += ",\"tid\":0,\"args\":{\"count\":" + std::to_string(dropped) +
            "}}\n";
    std::fwrite(meta.data(), 1, meta.size(), f);
  }
  std::fclose(f);
  file_ = nullptr;
  path_.clear();
}

std::uint64_t Tracer::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

Span::Span(const char* name, TraceContext parent, double* total,
           Histogram* histogram, std::uint64_t start_ns)
    : name_(name != nullptr && Tracer::global().enabled() ? name : nullptr),
      parent_(parent),
      total_(total),
      histogram_(histogram),
      armed_(name_ != nullptr || total != nullptr || histogram != nullptr) {
  if (armed_) start_ns_ = start_ns != 0 ? start_ns : Tracer::now_ns();
}

TraceContext Span::context() {
  if (name_ == nullptr) return {};
  if (span_id_ == 0) span_id_ = Tracer::global().next_id();
  if (parent_.valid()) return {parent_.trace_id, span_id_};
  if (trace_id_ == 0) trace_id_ = Tracer::global().next_id();
  return {trace_id_, span_id_};
}

std::uint64_t Span::stop(std::uint64_t end_ns) {
  if (!armed_) return end_ns;
  armed_ = false;
  if (end_ns == 0) end_ns = Tracer::now_ns();
  const double seconds = static_cast<double>(end_ns - start_ns_) / 1e9;
  if (total_ != nullptr) *total_ += seconds;
  if (histogram_ != nullptr) histogram_->observe(seconds);
  if (name_ != nullptr) {
    const TraceContext ctx = context();
    SpanRecord record;
    record.name = name_;
    record.arg_key = arg_key_;
    record.arg_value = arg_value_;
    record.start_ns = start_ns_;
    record.dur_ns = end_ns - start_ns_;
    record.trace_id = ctx.trace_id;
    record.span_id = ctx.span_id;
    record.parent_id = parent_.valid() ? parent_.span_id : 0;
    Tracer::global().record(record);
  }
  return end_ns;
}

std::size_t merge_trace_parts(const std::vector<std::string>& parts,
                              const std::string& out_path) {
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open trace output " + out_path);
  }
  out << "{\"traceEvents\":[";
  std::size_t events = 0;
  for (const std::string& part : parts) {
    std::ifstream in(part, std::ios::binary);
    if (!in) continue;  // a killed worker may never have flushed
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      if (line.front() != '{' || line.back() != '}') {
        throw std::runtime_error("trace part " + part + " line " +
                                 std::to_string(line_no) +
                                 " is not a JSON object");
      }
      if (events > 0) out << ',';
      out << '\n' << line;
      ++events;
    }
  }
  out << "\n]}\n";
  if (!out.flush()) {
    throw std::runtime_error("short write to trace output " + out_path);
  }
  return events;
}

}  // namespace repl::obs
