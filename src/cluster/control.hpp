// Cluster control protocol: the worker → coordinator side-channel.
//
// The event plane of a cluster is the existing v2 wire protocol (the
// coordinator is just an EventStreamClient per worker; each worker is a
// NetIngestServer). The control plane runs the other way, one stream per
// worker, and carries everything the coordinator needs that events
// cannot: the worker's identity and resume position, per-batch progress
// for lag metrics, checkpoint notifications, and — after the worker's
// slice drains — the id-sorted per-object finals plus a summary for the
// deterministic cross-partition reduce.
//
// Stream layout (little-endian):
//   offset  size  field
//   0       8     magic "REPLCCTL"
//   8       4     version (1)
//   12      4     reserved (0)
// followed by codec/block.hpp frames (body_len / aux / body CRC / frame
// CRC — the same envelope as the v2 event wire), where
//   aux = (message type << 24) | item count.
// Item count is the number of finals records in a kFinals frame and must
// be 0 for every other type.
//
// Message bodies:
//   kHello (32 B)      u32 partition_id, u32 num_partitions,
//                      u32 pf_version, u32 num_servers,
//                      u64 resume_events, u64 base_seed
//   kProgress (16 B)   u64 events_ingested, u64 batches
//   kCheckpoint (8 B)  u64 events_ingested
//   kFinals (48 B/rec) per record: u64 id, u64 events, u64 num_local,
//                      u64 num_transfers, f64 online_cost,
//                      f64 lower_bound (doubles as IEEE-754 bit patterns)
//   kSummary (48 B)    u64 objects, u64 events, u64 num_local,
//                      u64 num_transfers, f64 online_cost, f64 lower_bound
//   kMetrics (>= 16 B) u64 trace_id, u64 span_id (0 when no trace is
//                      active), then `count` obs::Sample records in the
//                      obs/federation.hpp sample codec — the worker's
//                      metrics snapshot the coordinator federates.
//                      Unlike every other type, count is the sample
//                      count, not 0.
//
// Protocol state machine, enforced by the assembler: kHello first and
// exactly once; kProgress/kCheckpoint counters never regress; kMetrics
// is only valid between hello and the first kFinals; once the
// first kFinals frame arrives only kFinals/kSummary may follow, with
// record ids strictly increasing across the whole finals sequence;
// kSummary exactly once, terminal, and its object count must equal the
// finals records delivered. Any violation — framing, CRC, body size,
// or semantics — throws a positioned std::runtime_error and kills the
// assembler. This is the fourth fuzzed decoder (replay/fuzz.hpp target
// "cluster").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/block.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"

namespace repl {

inline constexpr std::uint64_t kControlMagic =
    0x4c5443434c504552ULL;  // "REPLCCTL"
inline constexpr std::uint32_t kControlVersion = 1;
inline constexpr std::size_t kControlHeaderBytes = 16;

/// Cap on one control frame's body. Finals frames chunk at
/// kControlFinalsChunk records, far below this; a corrupt length field
/// must fail, not allocate.
inline constexpr std::size_t kMaxControlBodyBytes = std::size_t{1} << 21;

/// Finals records per kFinals frame on the encode side.
inline constexpr std::size_t kControlFinalsChunk = 4096;

/// Bytes of one encoded finals record.
inline constexpr std::size_t kControlFinalsRecordBytes = 48;

enum class ControlType : std::uint32_t {
  kHello = 1,
  kProgress = 2,
  kCheckpoint = 3,
  kFinals = 4,
  kSummary = 5,
  kMetrics = 6,
};

/// "hello" / "progress" / ... for diagnostics.
const char* control_type_name(ControlType type);

struct ControlHello {
  std::uint32_t partition_id = 0;
  std::uint32_t num_partitions = 1;
  std::uint32_t pf_version = 0;
  std::uint32_t num_servers = 0;
  std::uint64_t resume_events = 0;
  std::uint64_t base_seed = 0;
};

struct ControlProgress {
  std::uint64_t events_ingested = 0;
  std::uint64_t batches = 0;
};

struct ControlCheckpoint {
  std::uint64_t events_ingested = 0;
};

struct ControlSummary {
  std::uint64_t objects = 0;
  std::uint64_t events = 0;
  std::uint64_t num_local = 0;
  std::uint64_t num_transfers = 0;
  double online_cost = 0.0;
  double lower_bound = 0.0;
};

struct ControlMetrics {
  std::uint64_t trace_id = 0;  ///< active trace, 0 when tracing is off
  std::uint64_t span_id = 0;   ///< worker span the snapshot was taken under
  std::vector<obs::Sample> samples;
};

/// One decoded control message; `type` selects the live member.
struct ControlMessage {
  ControlType type = ControlType::kHello;
  ControlHello hello;
  ControlProgress progress;
  ControlCheckpoint checkpoint;
  std::vector<EngineObjectFinal> finals;
  ControlSummary summary;
  ControlMetrics metrics;
};

/// Encoders append the stream header / one framed message to `out`.
/// A worker's control stream is: header, hello, then messages.
void encode_control_header(std::vector<unsigned char>& out);
void encode_control_hello(const ControlHello& hello,
                          std::vector<unsigned char>& out);
void encode_control_progress(const ControlProgress& progress,
                             std::vector<unsigned char>& out);
void encode_control_checkpoint(const ControlCheckpoint& checkpoint,
                               std::vector<unsigned char>& out);
/// Requires 1 <= count <= kControlFinalsChunk per call; ids must be
/// strictly increasing (across calls too — the decoder enforces it).
void encode_control_finals(const EngineObjectFinal* finals, std::size_t count,
                           std::vector<unsigned char>& out);
void encode_control_summary(const ControlSummary& summary,
                            std::vector<unsigned char>& out);
/// Requires samples.size() <= obs::kMaxEncodedSamples and every sample
/// within the sample codec's caps (obs/federation.hpp).
void encode_control_metrics(const ControlMetrics& metrics,
                            std::vector<unsigned char>& out);

/// Incremental decoder for one worker's control stream, fed the raw
/// socket bytes in whatever chunks arrive. Complete valid messages are
/// appended to `out`; any defect throws a positioned std::runtime_error
/// naming the stream, the frame index, and the byte offset, after which
/// the assembler is dead. Framing is codec/block.hpp's
/// BlockStreamDecoder, which the event wire shares.
class ClusterControlAssembler {
 public:
  explicit ClusterControlAssembler(std::string name,
                                   std::size_t max_body_bytes =
                                       kMaxControlBodyBytes);

  void feed(const unsigned char* data, std::size_t size,
            std::vector<ControlMessage>& out);

  /// True between messages (header consumed, no partial frame pending) —
  /// where a clean connection close is permitted mid-stream.
  bool at_boundary() const { return stream_.at_boundary(); }
  /// True once the terminal kSummary arrived: the stream is whole.
  bool complete() const { return summary_seen_; }

  bool header_done() const { return stream_.header_done(); }
  const ControlHello& hello() const { return hello_; }
  bool hello_seen() const { return hello_seen_; }

  std::uint64_t bytes_consumed() const { return stream_.bytes_consumed(); }
  std::uint64_t frames_completed() const { return stream_.frames_completed(); }
  std::uint64_t messages_decoded() const { return stream_.frames_completed(); }
  std::uint64_t finals_records() const { return finals_records_; }

 private:
  void read_header(const unsigned char* raw);
  void decode_message(const BlockFrameHeader& frame,
                      const unsigned char* body, std::size_t size,
                      std::vector<ControlMessage>& out);

  BlockStreamDecoder stream_;

  // Protocol state.
  bool hello_seen_ = false;
  bool finals_seen_ = false;
  bool summary_seen_ = false;
  ControlHello hello_;
  std::uint64_t progress_events_ = 0;
  std::uint64_t progress_batches_ = 0;
  std::uint64_t checkpoint_events_ = 0;
  std::uint64_t finals_records_ = 0;
  std::uint64_t last_final_id_ = 0;
};

}  // namespace repl
