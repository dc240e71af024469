#include "replay/minimize.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "codec/block.hpp"
#include "replay/structure.hpp"
#include "trace/event_log.hpp"

namespace repl {

namespace {

/// One structural unit of the blob being shrunk. Decoded pieces (v2
/// blocks whose CRCs were valid) re-encode from their event list, so
/// events can be deleted inside them; raw pieces — malformed frames,
/// v1 records, snapshot records — travel as opaque bytes.
struct Piece {
  bool decoded = false;
  std::vector<LogEvent> events;
  std::vector<unsigned char> raw;
  /// Logical items for header-count patching (events for log blocks,
  /// 1 for records), as walked from the original.
  std::uint64_t items = 0;

  std::uint64_t live_items() const {
    return decoded ? events.size() : items;
  }
};

struct Model {
  /// Header bytes copied verbatim from the original blob.
  std::vector<unsigned char> header;
  std::vector<Piece> pieces;
  /// Bytes after the structured region (undecodable garbage — and, for
  /// snapshots, the footer travels separately below).
  std::vector<unsigned char> tail;
  std::vector<unsigned char> footer;
  /// Patch the header's event/object count to match the kept pieces.
  /// Only set when the original count was consistent, so a count
  /// mismatch that IS the failure is never repaired away.
  bool patch_count = false;
  bool snapshot = false;
};

Model build_log_model(const Fixture& fixture) {
  Model model;
  const std::vector<unsigned char>& blob = fixture.blob;
  const LogImage image = walk_log_image(blob);
  const std::size_t header_bytes =
      image.header_ok ? image.header_bytes
                      : std::min(blob.size(), EventLogHeader::kSize);
  model.header.assign(blob.begin(),
                      blob.begin() + static_cast<std::ptrdiff_t>(header_bytes));
  for (const SegmentSpan& span : image.segments) {
    Piece piece;
    piece.items = span.items;
    if (image.version == EventLogHeader::kVersionCompressed &&
        span.well_formed) {
      try {
        decode_event_block(static_cast<std::uint32_t>(span.items),
                           blob.data() + span.payload_offset,
                           span.size - kBlockFrameBytes, piece.events,
                           "minimizer");
        piece.decoded = true;
      } catch (const std::exception&) {
        piece.events.clear();
        piece.decoded = false;
      }
    }
    if (!piece.decoded) {
      piece.raw.assign(blob.begin() + static_cast<std::ptrdiff_t>(span.offset),
                       blob.begin() + static_cast<std::ptrdiff_t>(span.end()));
    }
    model.pieces.push_back(std::move(piece));
  }
  model.tail.assign(blob.begin() + static_cast<std::ptrdiff_t>(
                                       std::max(image.tail_offset,
                                                header_bytes)),
                    blob.end());
  const std::uint64_t total = image.items_before(image.segments.size());
  model.patch_count =
      image.header_ok && image.num_events == total;
  return model;
}

Model build_cluster_model(const Fixture& fixture) {
  // Control frames travel as opaque bytes: each is a protocol message
  // whose meaning depends on stream position, so the minimizer only
  // deletes whole frames (and the undecodable tail) — the protocol
  // state machine decides whether the failure survives.
  Model model;
  const std::vector<unsigned char>& blob = fixture.blob;
  const ControlImage image = walk_control_image(blob);
  const std::size_t header_bytes =
      image.header_ok ? image.header_bytes : std::min(blob.size(),
                                                      std::size_t{16});
  model.header.assign(blob.begin(),
                      blob.begin() + static_cast<std::ptrdiff_t>(header_bytes));
  for (const SegmentSpan& span : image.segments) {
    Piece piece;
    piece.items = span.items;
    piece.raw.assign(blob.begin() + static_cast<std::ptrdiff_t>(span.offset),
                     blob.begin() + static_cast<std::ptrdiff_t>(span.end()));
    model.pieces.push_back(std::move(piece));
  }
  model.tail.assign(blob.begin() + static_cast<std::ptrdiff_t>(
                                       std::max(image.tail_offset,
                                                header_bytes)),
                    blob.end());
  return model;
}

Model build_snapshot_model(const Fixture& fixture) {
  Model model;
  model.snapshot = true;
  const std::vector<unsigned char>& blob = fixture.blob;
  const SnapshotImage image = walk_snapshot_image(blob);
  const std::size_t header_bytes =
      image.header_ok ? image.header_bytes : std::min(blob.size(),
                                                      std::size_t{64});
  model.header.assign(blob.begin(),
                      blob.begin() + static_cast<std::ptrdiff_t>(header_bytes));
  for (const SegmentSpan& span : image.records) {
    Piece piece;
    piece.items = 1;
    piece.raw.assign(blob.begin() + static_cast<std::ptrdiff_t>(span.offset),
                     blob.begin() + static_cast<std::ptrdiff_t>(span.end()));
    model.pieces.push_back(std::move(piece));
  }
  if (image.footer_present) {
    model.footer.assign(
        blob.begin() + static_cast<std::ptrdiff_t>(image.footer_offset),
        blob.begin() + static_cast<std::ptrdiff_t>(image.footer_offset + 8));
  }
  model.tail.assign(blob.begin() + static_cast<std::ptrdiff_t>(
                                       std::max(image.tail_offset,
                                                header_bytes)),
                    blob.end());
  model.patch_count = image.header_ok && image.header_crc_ok &&
                      image.num_objects == image.records.size();
  return model;
}

std::vector<unsigned char> materialize(const Model& model) {
  std::vector<unsigned char> bytes = model.header;
  std::uint64_t items = 0;
  std::vector<unsigned char> body;
  for (const Piece& piece : model.pieces) {
    if (piece.decoded) {
      if (piece.events.empty()) continue;  // an empty block adds nothing
      body.clear();
      encode_event_block(piece.events.data(), piece.events.size(), body);
      const std::vector<unsigned char> block =
          frame_block(static_cast<std::uint32_t>(piece.events.size()), body);
      bytes.insert(bytes.end(), block.begin(), block.end());
      items += piece.events.size();
    } else {
      bytes.insert(bytes.end(), piece.raw.begin(), piece.raw.end());
      items += piece.items;
    }
  }
  bytes.insert(bytes.end(), model.footer.begin(), model.footer.end());
  bytes.insert(bytes.end(), model.tail.begin(), model.tail.end());
  if (model.patch_count) {
    if (model.snapshot) {
      patch_snapshot_object_count(bytes, items);
    } else {
      patch_log_event_count(bytes, items);
    }
  }
  return bytes;
}

std::uint64_t model_events(const Model& model) {
  std::uint64_t total = 0;
  for (const Piece& piece : model.pieces) total += piece.live_items();
  return total;
}

class Probe {
 public:
  Probe(const Fixture& input, std::string signature,
        const FixtureRunOptions& run)
      : fixture_(input), run_(run) {
    fixture_.expect = FixtureExpect::kFailure;
    fixture_.signature = std::move(signature);
  }

  /// True when `candidate` still fails with the preserved signature.
  bool operator()(const std::vector<unsigned char>& candidate) {
    ++count_;
    fixture_.blob = candidate;
    return fixture_run(fixture_, run_).pass;
  }

  std::size_t count() const { return count_; }

 private:
  Fixture fixture_;
  FixtureRunOptions run_;
  std::size_t count_ = 0;
};

/// One ddmin sweep over the pieces: try removing chunks of shrinking
/// size; returns true when anything was removed.
bool shrink_pieces(Model& model, Probe& probe) {
  bool changed = false;
  std::size_t chunk = std::max<std::size_t>(1, (model.pieces.size() + 1) / 2);
  while (true) {
    bool removed_any = false;
    for (std::size_t at = 0; at < model.pieces.size();) {
      const std::size_t n = std::min(chunk, model.pieces.size() - at);
      Model candidate = model;
      candidate.pieces.erase(
          candidate.pieces.begin() + static_cast<std::ptrdiff_t>(at),
          candidate.pieces.begin() + static_cast<std::ptrdiff_t>(at + n));
      if (probe(materialize(candidate))) {
        model = std::move(candidate);
        removed_any = true;
        changed = true;
        // keep `at`: the next chunk slid into place
      } else {
        at += n;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;
      continue;  // single-piece removals cascaded; sweep again
    }
    chunk = (chunk + 1) / 2;
  }
  return changed;
}

/// ddmin inside each decoded piece: delete event chunks while the
/// failure persists.
bool shrink_events(Model& model, Probe& probe) {
  bool changed = false;
  for (std::size_t p = 0; p < model.pieces.size(); ++p) {
    if (!model.pieces[p].decoded) continue;
    std::size_t chunk =
        std::max<std::size_t>(1, (model.pieces[p].events.size() + 1) / 2);
    while (!model.pieces[p].events.empty()) {
      bool removed_any = false;
      for (std::size_t at = 0; at < model.pieces[p].events.size();) {
        const std::size_t n =
            std::min(chunk, model.pieces[p].events.size() - at);
        Model candidate = model;
        auto& events = candidate.pieces[p].events;
        events.erase(events.begin() + static_cast<std::ptrdiff_t>(at),
                     events.begin() + static_cast<std::ptrdiff_t>(at + n));
        if (probe(materialize(candidate))) {
          model = std::move(candidate);
          removed_any = true;
          changed = true;
        } else {
          at += n;
        }
      }
      if (chunk == 1) {
        if (!removed_any) break;
        continue;
      }
      chunk = (chunk + 1) / 2;
    }
  }
  return changed;
}

bool shrink_extras(Model& model, Probe& probe) {
  bool changed = false;
  if (!model.tail.empty()) {
    Model candidate = model;
    candidate.tail.clear();
    if (probe(materialize(candidate))) {
      model = std::move(candidate);
      changed = true;
    }
  }
  return changed;
}

}  // namespace

MinimizeResult minimize_fixture(const Fixture& input,
                                const MinimizeOptions& options) {
  // Re-derive the failure to preserve: replay the input as-is. (The
  // recorded signature may be stale or empty; the observed one is the
  // ground truth.)
  Fixture observe = input;
  observe.expect = FixtureExpect::kFailure;
  observe.signature = "";
  const FixtureRunResult first = fixture_run(observe, options.run);
  if (first.signature.empty()) {
    throw std::invalid_argument(
        "fixture replay does not fail — nothing to minimize (an escape-"
        "class fixture only becomes minimizable once the decoder "
        "rejects it)");
  }
  const std::string signature = first.signature;

  Model model = input.target == FixtureTarget::kSnapshot
                    ? build_snapshot_model(input)
                : input.target == FixtureTarget::kCluster
                    ? build_cluster_model(input)
                    : build_log_model(input);
  Probe probe(input, signature, options.run);

  // The model must reproduce before any shrinking: materializing an
  // unmodified model re-encodes decoded blocks byte-identically, so a
  // mismatch here means the walker mis-parsed — fall back to byte-level
  // tail truncation only.
  if (!probe(materialize(model))) {
    model = Model{};
    model.header = input.blob;
  } else {
    for (std::size_t round = 0; round < options.max_rounds; ++round) {
      bool changed = false;
      changed |= shrink_extras(model, probe);
      changed |= shrink_pieces(model, probe);
      changed |= shrink_events(model, probe);
      if (!changed) break;
    }
  }

  MinimizeResult result;
  result.signature = signature;
  result.original_bytes = input.blob.size();
  result.probes = probe.count();
  result.fixture = input;
  result.fixture.expect = FixtureExpect::kFailure;
  result.fixture.signature = signature;
  result.fixture.blob = materialize(model);
  result.fixture.aggregates = FixtureAggregates{};
  result.fixture.cuts.clear();
  result.fixture.slice_events = model_events(model);
  result.fixture.slice_first_event = 0;
  result.fixture.slice_begin_byte = 0;
  result.fixture.slice_end_byte = 0;
  result.minimized_bytes = result.fixture.blob.size();
  return result;
}

}  // namespace repl
