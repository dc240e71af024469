// Versioned binary snapshot container for full engine state.
//
// A snapshot freezes a StreamingEngine mid-stream: the engine-level
// scalars plus one state record per live object, so a long-running serve
// can resume after a crash or redeploy with bit-identical final
// aggregates. The file layout mirrors trace/event_log.hpp's conventions
// (magic/version header, little-endian fixed-width fields, strict
// truncation detection):
//
//   offset  size  field
//   0       8     magic        "REPLCKPT"
//   8       4     version      currently 5
//   12      4     num_servers
//   16      8     num_objects        (object records that follow)
//   24      8     events_ingested    (the event-log resume offset in
//                                     records)
//   32      8     batches            (ingest batches so far, diagnostics)
//   40      8     base_seed          (per-object seed root; must match on
//                                     restore or object RNG streams fork)
//   48      8     last_batch_time    IEEE-754 binary64
//   56      4     flags              bit 0: any_event
//                                    bit 1: compute_lower_bound
//                                    bit 2: log binding fields meaningful
//                                    bit 3: log_hash covers all history
//   60      4     reserved, 0
//   --- version 2 extension (absent in version-1 files) ---
//   64      8     log_hash           rolling hash over every ingested
//                                     event (event_stream_hash), the
//                                     snapshot↔log binding checked on
//                                     resume
//   72      8     log_num_objects    driving log's header value (0 when
//                                     unknown / not bound)
//   80      8     log_num_events     driving log's header value
//                                     (kUnknownLogEvents when unknown)
//   88      4+n   policy_spec        length-prefixed canonical component
//                                     spec (empty: unknown, legacy
//                                     factory construction)
//   ...     4+n   predictor_spec     likewise
//   --- version 3 extension ---
//   ...     4     codec              per-record payload codec: 0 raw,
//                                     1 word codec (codec/word_codec.hpp)
//   --- version 4 extension ---
//   ...     4     partition_id       the partition slice the engine
//   ...     4     num_partitions       serves (0 partitions: unbound),
//   ...     4     pf_version           under this partition function
//                                      (cluster/partition.hpp)
//   --- version 5 extension ---
//   ...     4+n   engine_spec        length-prefixed engine-wide values
//                                     every object record shares: the
//                                     policy and predictor names (each
//                                     4+n), λ (binary64), the initial
//                                     server (4) and one binary64
//                                     storage rate per server
//   ---
//   ...     4     header CRC-32C     over every header byte before it
//                                     (versions >= 4)
//   then    --    object records, ascending object id.
//                 Version <= 2:
//                   0   8   object id
//                   8   4   payload length in bytes
//                   12  --  payload (StateWriter stream)
//                 Version >= 3:
//                   0   8   object id
//                   8   4   encoded length in bytes
//                   12  4   raw (decoded) length in bytes
//                   16  4   CRC-32C over the 16 prefix bytes + encoded
//                           payload
//                   20  --  encoded payload
//   end     8     footer magic "REPLCKND"
//
// The trailing footer makes truncation at an exact record boundary — a
// crash mid-checkpoint — detectable, which header-count checking alone
// would miss for the final record. Writers therefore emit to a temporary
// path and rename into place (see StreamingEngine::checkpoint) so a
// partial file never shadows a good snapshot.
//
// Every byte of a version-4 or -5 file is checked: the header by its own
// CRC, each record by its record CRC, the footer by its magic, so a
// flipped bit anywhere fails with a diagnostic naming the header, the
// record or the footer. The slice makes a cluster worker's snapshot
// self-describing: one atomic file per cut, which a worker assigned
// another partition, partition count or partition-function version
// refuses (StreamingEngine::bind_slice).
//
// A version-5 payload holds what its object alone knows: each
// per-server table lists the touched servers only (core/server_table.hpp),
// and the engine spec is checked once per restore instead of once per
// record. Writers always emit version 5, and the engine always cuts
// codec 0. Codec-1 records, which older builds wrote with the word
// codec (codec/word_codec.hpp), still restore; SnapshotWriter packs
// records that way only when its header asks for codec 1.
// Versions 3 and 4 (dense tables, the engine-wide values and
// per-component cross-checks repeated in every record) still restore,
// each table converted to its touched entries on load, as do version 1
// files (no extension block) and version 2 files (no codec field, bare
// records): those restore with no slice, v1 specs decode empty and the
// log binding as unknown, which downgrades the resume cross-checks to
// the version-1 behavior.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "checkpoint/state_io.hpp"

namespace repl {

/// Best-effort fsync of a file or directory: failures are ignored.
void sync_path_best_effort(const std::string& path);

/// Atomic replace: renames the sealed (already synced) file `tmp` over
/// `path`, then syncs the containing directory ("." for a bare file
/// name) so the rename itself survives a power loss. A crash at any
/// point leaves either the previous file or the new one, never a partial
/// one. Throws std::filesystem::filesystem_error when the rename fails.
void rename_and_sync_dir(const std::string& tmp, const std::string& path);

struct SnapshotHeader {
  static constexpr std::uint64_t kMagic = 0x54504b434c504552ULL;  // "REPLCKPT"
  static constexpr std::uint64_t kFooterMagic =
      0x444e4b434c504552ULL;  // "REPLCKND"
  static constexpr std::uint32_t kVersion = kStateFormat;
  static constexpr std::size_t kSize = 64;  // fixed part, bytes on disk
  /// Fixed-width portion of the v2 extension (before the spec strings).
  static constexpr std::size_t kExtensionSize = 24;
  /// The v4 extension: the slice (three u32) and the header CRC.
  static constexpr std::size_t kSliceSize = 16;
  /// Object-record prefix bytes from version 3 on: id, both lengths and
  /// the record CRC.
  static constexpr std::size_t kRecordPrefixSize = 20;

  /// Object-record payload codecs (version >= 3).
  static constexpr std::uint32_t kCodecRaw = 0;
  static constexpr std::uint32_t kCodecWord = 1;

  /// Sanity cap on one object record's raw payload: a corrupt length
  /// must fail with a diagnostic, not a multi-GB allocation. Object
  /// state is typically a few hundred bytes.
  static constexpr std::uint32_t kMaxRecordBytes = 1u << 26;
  /// Cap on the encoded payload: the word codec's bounded worst case
  /// over a kMaxRecordBytes input (one control byte per two words plus
  /// slack), so everything the writer can legally emit reads back.
  static constexpr std::uint32_t kMaxEncodedRecordBytes =
      kMaxRecordBytes + kMaxRecordBytes / 16 + 16;
  /// Sanity cap on each spec string and component name.
  static constexpr std::size_t kMaxSpecBytes = std::size_t{1} << 16;
  /// "Unknown" sentinel for log_num_events (mirrors
  /// EventLogHeader::kUnknownCount without including trace/event_log.hpp).
  static constexpr std::uint64_t kUnknownLogEvents = ~std::uint64_t{0};

  static constexpr std::uint32_t kFlagAnyEvent = 1u << 0;
  static constexpr std::uint32_t kFlagLowerBound = 1u << 1;
  static constexpr std::uint32_t kFlagLogBound = 1u << 2;
  /// log_hash covers the engine's whole ingest history. Clear only when
  /// the snapshotting engine was itself restored from a pre-v2 snapshot
  /// (its prefix hash is unknown).
  static constexpr std::uint32_t kFlagLogHash = 1u << 3;

  std::uint32_t version = kVersion;
  std::uint32_t num_servers = 0;
  std::uint64_t num_objects = 0;
  std::uint64_t events_ingested = 0;
  std::uint64_t batches = 0;
  std::uint64_t base_seed = 0;
  double last_batch_time = 0.0;
  std::uint32_t flags = 0;
  /// Rolling hash over every event the snapshotted engine ingested.
  std::uint64_t log_hash = 0;
  /// Driving log identity at bind time; meaningful iff kFlagLogBound.
  std::uint64_t log_num_objects = 0;
  std::uint64_t log_num_events = kUnknownLogEvents;
  /// Canonical component specs of the snapshotted engine (empty when the
  /// engine was built from raw factories rather than specs).
  std::string policy_spec;
  std::string predictor_spec;
  /// Object-record payload codec (kCodecRaw for versions < 3).
  std::uint32_t codec = kCodecRaw;
  /// The partition slice the snapshotted engine served (version >= 4;
  /// num_partitions 0 means unbound, as every pre-v4 file reads).
  std::uint32_t partition_id = 0;
  std::uint32_t num_partitions = 0;
  std::uint32_t pf_version = 0;
  /// The engine spec (version >= 5): the components' names, which every
  /// object's components must carry, and the SystemConfig values every
  /// component prices against. Empty names mean no object records.
  std::string policy_name;
  std::string predictor_name;
  double transfer_cost = 0.0;
  std::int32_t initial_server = 0;
  /// One rate per server. Writers read an empty list as every rate 1.0,
  /// as SystemConfig does; readers always fill it.
  std::vector<double> storage_rates;

  /// Bytes of the engine spec block after its length prefix.
  std::size_t engine_spec_size() const {
    return 4 + policy_name.size() + 4 + predictor_name.size() + 8 + 4 +
           8 * std::size_t{num_servers};
  }

  /// Total on-disk header size: where the first object record begins.
  std::size_t encoded_size() const {
    if (version < 2) return kSize;
    return kSize + kExtensionSize + 4 + policy_spec.size() + 4 +
           predictor_spec.size() + (version >= 3 ? 4 : 0) +
           (version >= 4 ? kSliceSize : 0) +
           (version >= 5 ? 4 + engine_spec_size() : 0);
  }

  /// Object-record prefix bytes for this version (id + lengths [+ crc]).
  std::size_t record_prefix_size() const {
    return version >= 3 ? kRecordPrefixSize : 12;
  }
};

/// Seals one object record in `out`: the payload's raw bytes were
/// appended after a kRecordPrefixSize gap that starts at offset `at`.
/// Under kCodecWord the payload is packed in place of its raw bytes;
/// then the prefix is filled in, CRC included. The engine's shard
/// encoders frame every record through this (always kCodecRaw),
/// straight into their shard's buffer, and so does
/// SnapshotWriter::add_object.
void frame_record(std::vector<unsigned char>& out, std::size_t at,
                  std::uint64_t object_id, std::uint32_t codec);

/// The object id and total byte size (prefix included) of the framed
/// record that starts at `record`.
std::uint64_t framed_record_id(const unsigned char* record);
std::size_t framed_record_size(const unsigned char* record);

/// Opens `path`, validates and returns just the header — the cheap way
/// to inspect a snapshot's specs and log binding without decoding any
/// object records.
SnapshotHeader read_snapshot_header(const std::string& path);

/// Writes a snapshot file through its own descriptor, in large blocks.
/// The object count is fixed up front (the engine knows its table size
/// before serializing), so close() can verify every promised record was
/// emitted before sealing the footer.
class SnapshotWriter {
 public:
  /// Opens `path` (truncating) and emits the header. Throws
  /// std::runtime_error when the file cannot be opened.
  SnapshotWriter(const std::string& path, const SnapshotHeader& header);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Appends one object record. Ids must be strictly increasing — the
  /// canonical order, independent of shard layout.
  void add_object(std::uint64_t object_id,
                  const std::vector<unsigned char>& payload);
  /// Appends one record that frame_record sealed under this header's
  /// codec; `record` points at its prefix. Same id order as add_object.
  void add_framed(const unsigned char* record);

  /// Appends the footer and writes every pending byte. Throws
  /// std::runtime_error naming the path when a write fails, or if fewer
  /// records than promised were added.
  void seal();
  /// Seals (unless seal() did), fsyncs the file and closes it. Throws
  /// std::runtime_error naming the path when a write, the fsync or the
  /// close fails; the file must not be renamed into place then. The
  /// destructor does NOT seal — an abandoned writer leaves a file
  /// without a footer, which readers reject.
  void close();

  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  /// Checks a record's id against the order and the promised count.
  void admit(std::uint64_t object_id);
  /// Writes the pending block through the descriptor.
  void flush();
  [[noreturn]] void fail(const std::string& what) const;

  int fd_ = -1;
  std::string path_;
  SnapshotHeader header_;
  /// Bytes not yet written; flushed once they pass a block.
  std::vector<unsigned char> pending_;
  std::uint64_t objects_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t last_id_ = 0;
  bool open_ = false;
};

/// Reads and validates a snapshot file: header (and its v4+ CRC) on
/// open, per-record bounds, CRCs and id ordering during iteration, footer
/// at the end. Every corruption mode (bad magic, unsupported version,
/// header CRC mismatch, truncation anywhere, trailing garbage) raises
/// std::runtime_error with a diagnostic.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::string& path);

  const SnapshotHeader& header() const { return header_; }

  /// Reads the next object record; returns false after the last one (at
  /// which point the footer has been verified).
  bool next_object(std::uint64_t& object_id,
                   std::vector<unsigned char>& payload);

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void read_exact(void* dst, std::size_t n, const char* what);

  std::ifstream in_;
  std::string path_;
  SnapshotHeader header_;
  /// Reusable scratch for encoded (pre-codec) record payloads.
  std::vector<unsigned char> encoded_;
  std::uint64_t objects_read_ = 0;
  std::uint64_t prev_id_ = 0;
  bool footer_checked_ = false;
};

}  // namespace repl
