// Self-contained replay fixtures: one file that reproduces one run.
//
// A fixture freezes everything needed to re-execute a decode-and-serve
// session and check the outcome: the component specs, the system config,
// the engine knobs that affect aggregates, the *exact event slice that
// was served* (re-encoded into an embedded event log, so captures work
// for live socket sessions as well as file replay), the checkpoint cut
// points taken during the session, and the final aggregates down to the
// bit pattern of every double. genthat-style capture-to-test: record a
// real session once, then replay it forever as a regression test.
//
// File layout ("REPLFIXT", version 1):
//
//   offset  size  field
//   0       8     magic       "REPLFIXT"
//   8       4     version     1
//   12      4     target      0 serve, 1 snapshot, 2 wire, 3 cluster
//   16      4     expect      0 parity (replay must succeed and match
//                             the recorded aggregates bit-exactly),
//                             1 failure (replay must fail with the
//                             recorded diagnostic signature)
//   20      4     reserved, 0
//   24      8     meta_len
//   32      --    meta        (StateWriter stream; see fixture.cpp)
//   --      8     blob_len
//   --      --    blob        the embedded artifact: a complete event
//                             log file (serve), snapshot file (snapshot)
//                             or wire byte stream (wire)
//   --      4     CRC-32C over every byte above
//   end     8     footer      "REPLFXND"
//
// The four targets cover the four untrusted-input formats: `serve`
// replays the embedded log through a spec-built StreamingEngine (the
// full decode→shard→reduce pipeline), `snapshot` drains the embedded
// bytes through SnapshotReader, `wire` feeds them through a
// FrameAssembler in varying chunk sizes, and `cluster` feeds them
// through a ClusterControlAssembler (the coordinator's worker
// control-stream decoder) the same way. Failure fixtures — what the
// structured fuzzer emits and the minimizer shrinks — assert that a
// malformed input keeps producing the same *positioned diagnostic*
// (compared shape-wise: digits are stripped, so block indices and byte
// offsets may drift as the input shrinks while the failure mode may
// not), never a crash or a silent wrong answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace repl {

/// Which decoder the fixture's embedded bytes drive.
enum class FixtureTarget : std::uint32_t {
  kServe = 0,
  kSnapshot = 1,
  kWire = 2,
  kCluster = 3,
};

/// What replaying the fixture must produce.
enum class FixtureExpect : std::uint32_t {
  kParity = 0,
  kFailure = 1,
};

const char* fixture_target_name(FixtureTarget target);
FixtureTarget parse_fixture_target(const std::string& name);

/// The recorded outcome of a parity fixture, bit-comparable. For the
/// snapshot and wire targets only `objects`/`events` are meaningful
/// (records read / events decoded).
struct FixtureAggregates {
  std::uint64_t objects = 0;
  std::uint64_t events = 0;
  std::uint64_t num_local = 0;
  std::uint64_t num_transfers = 0;
  double online_cost = 0.0;
  double lower_bound = 0.0;
};

struct Fixture {
  FixtureTarget target = FixtureTarget::kServe;
  FixtureExpect expect = FixtureExpect::kParity;

  /// Canonical component specs of the captured engine (serve target).
  std::string policy_spec;
  std::string predictor_spec;
  /// Human label of where the slice came from (log path, peer name).
  std::string source_name;

  /// System + engine knobs that affect aggregates.
  std::uint32_t num_servers = 1;
  double transfer_cost = 1.0;
  std::int32_t initial_server = 0;
  std::vector<double> storage_rates;
  std::uint64_t base_seed = 0;
  bool compute_lower_bound = true;

  /// The captured slice: [slice_first_event, slice_first_event +
  /// slice_events) of the logical stream, and its byte range within the
  /// original source when known (0,0 otherwise). Diagnostics only — the
  /// events themselves are embedded in `blob`.
  std::uint64_t slice_first_event = 0;
  std::uint64_t slice_events = 0;
  std::uint64_t slice_begin_byte = 0;
  std::uint64_t slice_end_byte = 0;

  /// Absolute event offsets at which periodic checkpoints were sealed.
  std::vector<std::uint64_t> cuts;

  FixtureAggregates aggregates;

  /// Digit-stripped diagnostic the replay must reproduce (failure
  /// fixtures; empty otherwise). See failure_signature().
  std::string signature;

  /// The embedded artifact bytes (a complete file image).
  std::vector<unsigned char> blob;

  SystemConfig system_config() const;
};

/// Writes `fixture` to `path` (atomically: tmp + rename). Throws
/// std::runtime_error on I/O failure.
void write_fixture(const std::string& path, const Fixture& fixture);

/// Reads and validates a fixture. Every corruption mode (bad magic,
/// version, truncation, CRC mismatch, missing footer) throws
/// std::runtime_error with a diagnostic naming the file.
Fixture read_fixture(const std::string& path);

/// Normalizes a diagnostic into a comparison signature: digits collapse
/// to '#' (positions and counts drift as inputs shrink; the failure
/// *mode* must not) and the scratch path prefix up to the last '/' is
/// dropped from path-bearing messages.
std::string failure_signature(const std::string& message);

/// Records one serve() session into a fixture. Driven by
/// StreamingEngine::serve when ServeOptions::capture is set; usable
/// directly by manual ingest() loops: record() every batch in ingest
/// order, record_cut() after each checkpoint, then finish() with the
/// final aggregates to seal the file.
class SessionCapture {
 public:
  /// `first_event` is the engine's resume_position() — must be 0 (see
  /// ServeOptions::capture). Creates a scratch event log next to the
  /// fixture path; finish() or the destructor removes it.
  SessionCapture(const CaptureOptions& options, const SystemConfig& config,
                 const EngineOptions& engine_options,
                 std::uint64_t first_event);
  ~SessionCapture();

  SessionCapture(const SessionCapture&) = delete;
  SessionCapture& operator=(const SessionCapture&) = delete;

  void record(const LogEvent* events, std::size_t count);
  void record(const std::vector<LogEvent>& events) {
    record(events.data(), events.size());
  }

  /// Marks a checkpoint cut at absolute event offset `events_ingested`.
  void record_cut(std::uint64_t events_ingested);

  /// Byte range of the slice within the original source, when the
  /// source has a byte-level view.
  void set_byte_range(std::uint64_t begin, std::uint64_t end);

  /// Seals the fixture with the session's final aggregates.
  void finish(const EngineMetrics& metrics);

 private:
  CaptureOptions options_;
  Fixture fixture_;
  std::string scratch_log_;
  std::unique_ptr<EventLogWriter> writer_;
  std::uint64_t events_ = 0;
};

}  // namespace repl
