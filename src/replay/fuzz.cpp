#include "replay/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "checkpoint/snapshot.hpp"
#include "cluster/control.hpp"
#include "codec/block.hpp"
#include "net/wire.hpp"
#include "replay/fixture.hpp"
#include "replay/structure.hpp"
#include "trace/event_log.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace repl {

namespace {

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// What a mutated input is allowed to do to its decoder.
enum class Expect {
  /// Must reject with a diagnostic; acceptance is an escape.
  kReject,
  /// Must accept and decode exactly the expected items; a rejection is
  /// an escape (the mutation is well-formed by the format's own rules).
  kAccept,
  /// Accept => items must match the expectation; rejecting is also fine
  /// (the decoder is allowed to be stricter than the mutation assumes).
  kEither,
  /// Accept => item *count* must match; values unconstrained (v1 record
  /// bytes carry no CRC, so flips legitimately change values).
  kEitherCount,
  /// Accept or reject freely; only the universal acceptance invariants
  /// apply (whole input consumed, header count honored).
  kFree,
};

using SnapRecord = std::pair<std::uint64_t, std::vector<unsigned char>>;

struct Mutation {
  std::vector<unsigned char> bytes;
  std::string name;
  Expect expect = Expect::kFree;
  std::vector<LogEvent> expected_events;
  std::uint64_t expected_count = 0;
  std::vector<SnapRecord> expected_records;
  /// Cluster target: control messages an accepted stream must decode.
  std::uint64_t expected_messages = 0;
};

struct DecodeOutcome {
  enum class Kind { kAccepted, kRejected, kEscape };
  Kind kind = Kind::kAccepted;
  /// Rejection diagnostic or escape evidence.
  std::string detail;
  std::vector<LogEvent> events;
  std::vector<SnapRecord> records;
  /// Cluster target: decoded message / finals-record counts.
  std::uint64_t cluster_messages = 0;
  std::uint64_t cluster_finals = 0;
};

/// Classifies an in-flight exception the way the fuzz oracle sees it:
/// runtime_error / invalid_argument with a non-empty message is the
/// contract (a diagnosed rejection); CheckFailure is a breached internal
/// invariant; anything else is an undisciplined escape.
DecodeOutcome classify_throw() {
  DecodeOutcome out;
  try {
    throw;
  } catch (const CheckFailure& e) {
    out.kind = DecodeOutcome::Kind::kEscape;
    out.detail = std::string("internal invariant breached (CheckFailure): ") +
                 e.what();
  } catch (const std::invalid_argument& e) {
    out.kind = DecodeOutcome::Kind::kRejected;
    out.detail = e.what();
  } catch (const std::runtime_error& e) {
    out.kind = DecodeOutcome::Kind::kRejected;
    out.detail = e.what();
  } catch (const std::exception& e) {
    out.kind = DecodeOutcome::Kind::kEscape;
    out.detail = std::string("unexpected exception type: ") + e.what();
  }
  if (out.kind == DecodeOutcome::Kind::kRejected && out.detail.empty()) {
    out.kind = DecodeOutcome::Kind::kEscape;
    out.detail = "rejection with an empty diagnostic";
  }
  return out;
}

std::string describe_event(const LogEvent& e) {
  std::ostringstream os;
  os << "{t=" << e.time << ", obj=" << e.object << ", srv=" << e.server << "}";
  return os.str();
}

std::string diff_events(const std::vector<LogEvent>& want,
                        const std::vector<LogEvent>& got) {
  if (want.size() != got.size()) {
    return "decoded " + std::to_string(got.size()) + " events, expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(want[i] == got[i])) {
      return "event " + std::to_string(i) + " decoded as " +
             describe_event(got[i]) + ", expected " + describe_event(want[i]);
    }
  }
  return "";
}

std::string diff_records(const std::vector<SnapRecord>& want,
                         const std::vector<SnapRecord>& got) {
  if (want.size() != got.size()) {
    return "read " + std::to_string(got.size()) + " records, expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].first != got[i].first) {
      return "record " + std::to_string(i) + " has id " +
             std::to_string(got[i].first) + ", expected " +
             std::to_string(want[i].first);
    }
    if (want[i].second != got[i].second) {
      return "record " + std::to_string(i) + " (id " +
             std::to_string(got[i].first) + ") payload differs";
    }
  }
  return "";
}

/// The verdict: "" when the decoder behaved, else the escape evidence.
std::string judge(const Mutation& m, const DecodeOutcome& o, bool snapshot) {
  if (o.kind == DecodeOutcome::Kind::kEscape) return o.detail;
  if (o.kind == DecodeOutcome::Kind::kRejected) {
    if (m.expect == Expect::kAccept) {
      return "rejected a well-formed input: " + o.detail;
    }
    return "";
  }
  switch (m.expect) {
    case Expect::kReject:
      return "accepted malformed input and decoded " +
             std::to_string(snapshot ? o.records.size() : o.events.size()) +
             (snapshot ? " records" : " events");
    case Expect::kAccept:
    case Expect::kEither: {
      const std::string diff =
          snapshot ? diff_records(m.expected_records, o.records)
                   : diff_events(m.expected_events, o.events);
      return diff.empty() ? "" : "silent wrong decode: " + diff;
    }
    case Expect::kEitherCount:
      if (o.events.size() != m.expected_count) {
        return "silent wrong decode: " + std::to_string(o.events.size()) +
               " events, expected " + std::to_string(m.expected_count);
      }
      return "";
    case Expect::kFree:
      return "";
  }
  return "";
}

/// Monotonically non-decreasing, as the wire protocol requires.
bool times_monotone(const std::vector<LogEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time < events[i - 1].time) return false;
  }
  return true;
}

std::vector<LogEvent> gen_events(Rng& rng, std::size_t count,
                                 std::uint32_t num_servers, double t0) {
  std::vector<LogEvent> events;
  events.reserve(count);
  double t = t0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(4.0);  // strictly increasing, positive, finite
    LogEvent e;
    e.time = t;
    e.object = rng.uniform_index(24);
    e.server = static_cast<std::uint32_t>(rng.uniform_index(num_servers));
    events.push_back(e);
  }
  return events;
}

void flip_bit(std::vector<unsigned char>& bytes, std::size_t byte,
              std::size_t bit) {
  bytes[byte] = static_cast<unsigned char>(bytes[byte] ^ (1u << bit));
}

void append_bytes(std::vector<unsigned char>& dst,
                  const std::vector<unsigned char>& src, std::size_t begin,
                  std::size_t end) {
  dst.insert(dst.end(), src.begin() + static_cast<std::ptrdiff_t>(begin),
             src.begin() + static_cast<std::ptrdiff_t>(end));
}

// ---------------------------------------------------------------------------
// Event-log / wire cases (byte-identical formats, different oracles)
// ---------------------------------------------------------------------------

struct LogCase {
  std::vector<unsigned char> base;
  std::vector<LogEvent> events;
  LogImage image;
  std::uint32_t num_servers = 1;
  EventLogFormat format = EventLogFormat::kCompressed;
  std::size_t block_events = 16;
};

LogCase make_log_case(Rng& rng, const ScratchDir& scratch) {
  LogCase c;
  c.num_servers = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
  c.format = rng.bernoulli(0.7) ? EventLogFormat::kCompressed
                                : EventLogFormat::kRaw;
  static constexpr std::size_t kBlockChoices[] = {4, 16, 64};
  c.block_events = kBlockChoices[rng.uniform_index(3)];
  c.events = gen_events(rng, 1 + rng.uniform_index(150), c.num_servers, 0.0);
  const std::string path = scratch.file("base.evlog");
  {
    EventLogWriter writer(path, static_cast<int>(c.num_servers), 0, c.format,
                          c.block_events);
    for (const LogEvent& e : c.events) writer.write(e);
    writer.close();
  }
  c.base = read_bytes(path);
  c.image = walk_log_image(c.base);
  return c;
}

/// A second, independent stream for splicing: same geometry, times
/// starting at `t0`.
LogCase make_donor_case(Rng& rng, const LogCase& like,
                        const ScratchDir& scratch, double t0) {
  LogCase c;
  c.num_servers = like.num_servers;
  c.format = like.format;
  c.block_events = like.block_events;
  c.events = gen_events(rng, 1 + rng.uniform_index(60), c.num_servers, t0);
  const std::string path = scratch.file("donor.evlog");
  {
    EventLogWriter writer(path, static_cast<int>(c.num_servers), 0, c.format,
                          c.block_events);
    for (const LogEvent& e : c.events) writer.write(e);
    writer.close();
  }
  c.base = read_bytes(path);
  c.image = walk_log_image(c.base);
  return c;
}

/// Builds the in-memory wire stream equivalent of a compressed log:
/// stream header (counts unknown) + one frame per `block_events` chunk.
LogCase make_wire_case(Rng& rng) {
  LogCase c;
  c.num_servers = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
  c.format = EventLogFormat::kCompressed;
  static constexpr std::size_t kBlockChoices[] = {4, 16, 64};
  c.block_events = kBlockChoices[rng.uniform_index(3)];
  c.events = gen_events(rng, 1 + rng.uniform_index(150), c.num_servers, 0.0);
  c.base.resize(EventLogHeader::kSize);
  encode_stream_header(c.base.data(), c.num_servers);
  std::vector<unsigned char> body;
  for (std::size_t i = 0; i < c.events.size(); i += c.block_events) {
    const std::size_t n = std::min(c.block_events, c.events.size() - i);
    body.clear();
    encode_event_block(c.events.data() + i, n, body);
    const std::vector<unsigned char> block =
        frame_block(static_cast<std::uint32_t>(n), body);
    c.base.insert(c.base.end(), block.begin(), block.end());
  }
  c.image = walk_log_image(c.base);
  return c;
}

LogCase make_wire_donor(Rng& rng, const LogCase& like, double t0) {
  LogCase c;
  c.num_servers = like.num_servers;
  c.format = EventLogFormat::kCompressed;
  c.block_events = like.block_events;
  c.events = gen_events(rng, 1 + rng.uniform_index(60), c.num_servers, t0);
  c.base.resize(EventLogHeader::kSize);
  encode_stream_header(c.base.data(), c.num_servers);
  std::vector<unsigned char> body;
  for (std::size_t i = 0; i < c.events.size(); i += c.block_events) {
    const std::size_t n = std::min(c.block_events, c.events.size() - i);
    body.clear();
    encode_event_block(c.events.data() + i, n, body);
    const std::vector<unsigned char> block =
        frame_block(static_cast<std::uint32_t>(n), body);
    c.base.insert(c.base.end(), block.begin(), block.end());
  }
  c.image = walk_log_image(c.base);
  return c;
}

/// Truncation point at the k-th structural boundary (0 = end of
/// header); mid-segment variants add an interior offset.
Mutation mutate_truncate(const LogCase& c, Rng& rng, bool wire) {
  Mutation m;
  const bool at_boundary = rng.bernoulli(0.5);
  const std::size_t segs = c.image.segments.size();
  if (at_boundary) {
    const std::size_t keep = rng.uniform_index(segs);  // proper prefix
    const std::size_t cut =
        keep == 0 ? c.image.header_bytes : c.image.segments[keep - 1].end();
    m.bytes.assign(c.base.begin(),
                   c.base.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::uint64_t prefix_events = c.image.items_before(keep);
    if (wire) {
      // A clean close at a frame boundary is a legal end of stream.
      m.expect = Expect::kAccept;
      m.expected_events.assign(
          c.events.begin(),
          c.events.begin() + static_cast<std::ptrdiff_t>(prefix_events));
      m.name = "truncate:boundary:keep=" + std::to_string(keep);
      return m;
    }
    const bool unknown = rng.bernoulli(0.5);
    if (unknown) {
      // A crashed writer: count never patched. The prefix must read
      // back cleanly.
      patch_log_event_count(m.bytes, EventLogHeader::kUnknownCount);
      m.expect = Expect::kAccept;
      m.expected_events.assign(
          c.events.begin(),
          c.events.begin() + static_cast<std::ptrdiff_t>(prefix_events));
    } else {
      m.expect = Expect::kReject;  // fewer events than the header promises
    }
    m.name = "truncate:boundary:keep=" + std::to_string(keep) +
             ":unknown=" + std::to_string(unknown);
    return m;
  }
  // Mid-segment (or mid-header) cut: never a clean end.
  std::size_t cut;
  if (segs == 0 || rng.bernoulli(0.15)) {
    cut = 1 + rng.uniform_index(std::min(c.base.size(), std::size_t{31}));
    m.name = "truncate:mid-header:cut=" + std::to_string(cut);
  } else {
    const std::size_t k = rng.uniform_index(segs);
    const SegmentSpan& span = c.image.segments[k];
    cut = span.offset + 1 + rng.uniform_index(span.size - 1);
    m.name = "truncate:mid-segment:" + std::to_string(k) +
             ":cut=" + std::to_string(cut);
  }
  m.bytes.assign(c.base.begin(),
                 c.base.begin() + static_cast<std::ptrdiff_t>(cut));
  if (!wire && rng.bernoulli(0.5) && m.bytes.size() >= EventLogHeader::kSize) {
    patch_log_event_count(m.bytes, EventLogHeader::kUnknownCount);
    m.name += ":unknown=1";
  }
  m.expect = Expect::kReject;
  return m;
}

Mutation mutate_flip(const LogCase& c, Rng& rng, bool wire) {
  Mutation m;
  m.bytes = c.base;
  const bool header = rng.bernoulli(0.3) || c.base.size() <= 32;
  std::size_t byte;
  if (header) {
    byte = rng.uniform_index(std::min<std::size_t>(c.base.size(), 32));
  } else {
    byte = 32 + rng.uniform_index(c.base.size() - 32);
  }
  const std::size_t bit = rng.uniform_index(8);
  flip_bit(m.bytes, byte, bit);
  m.name = "flip:byte=" + std::to_string(byte) + ":bit=" + std::to_string(bit);
  if (byte < 12) {
    // Magic or version: unrecognizable container.
    m.expect = Expect::kReject;
  } else if (byte < 32) {
    if (wire) {
      // Counts are unknown-by-design on the wire; servers ignore them.
      // num_servers flips may or may not be validated. Accepted streams
      // must still decode the exact baseline (frames are CRC-covered).
      m.expect = Expect::kEither;
      m.expected_events = c.events;
    } else {
      // Count/num_objects flips: the universal invariants (whole file
      // consumed, header count delivered) are the oracle.
      m.expect = Expect::kFree;
    }
  } else if (c.image.version == EventLogHeader::kVersionCompressed) {
    // Every body byte is CRC-covered (frame or payload).
    m.expect = Expect::kReject;
  } else {
    // v1 records carry no CRC: flips silently change values, never the
    // count, and must never crash.
    m.expect = Expect::kEitherCount;
    m.expected_count = c.events.size();
  }
  return m;
}

Mutation mutate_overflow(const LogCase& c, Rng& rng) {
  Mutation m;
  m.bytes = c.base;
  m.expect = Expect::kReject;
  const std::size_t k = rng.uniform_index(c.image.segments.size());
  const std::size_t off = c.image.segments[k].offset;
  const std::uint32_t variant =
      static_cast<std::uint32_t>(rng.uniform_index(5));
  unsigned char* frame = m.bytes.data() + off;
  switch (variant) {
    case 0:  // implausible length, stale frame CRC
      store_le32(frame, (1u << 26) + 1 +
                            static_cast<std::uint32_t>(rng.uniform_index(1024)));
      break;
    case 1:  // implausible length, *valid* frame CRC
      store_le32(frame, (1u << 26) + 1 +
                            static_cast<std::uint32_t>(rng.uniform_index(1024)));
      refresh_frame_crc(m.bytes, off);
      break;
    case 2:  // count exceeds what the payload can hold, valid frame CRC
      store_le32(frame + 4,
                 load_le32(frame + 4) + 1000 +
                     static_cast<std::uint32_t>(rng.uniform_index(1 << 20)));
      refresh_frame_crc(m.bytes, off);
      break;
    case 3:  // count lowered: payload left with trailing bytes
      store_le32(frame + 4, load_le32(frame + 4) / 2);
      refresh_frame_crc(m.bytes, off);
      break;
    default:  // length nudged: payload CRC window shifts off the rails
      store_le32(frame, load_le32(frame) + 1 +
                            static_cast<std::uint32_t>(rng.uniform_index(8)));
      refresh_frame_crc(m.bytes, off);
      break;
  }
  m.name = "overflow:segment=" + std::to_string(k) +
           ":variant=" + std::to_string(variant);
  return m;
}

Mutation mutate_splice(const LogCase& c, const LogCase& donor, Rng& rng,
                       bool wire) {
  Mutation m;
  const std::size_t i = rng.uniform_index(c.image.segments.size() + 1);
  const std::size_t j = rng.uniform_index(donor.image.segments.size());
  const std::size_t cut_a =
      i == 0 ? c.image.header_bytes : c.image.segments[i - 1].end();
  const std::size_t cut_b = donor.image.segments[j].offset;
  m.bytes.assign(c.base.begin(),
                 c.base.begin() + static_cast<std::ptrdiff_t>(cut_a));
  append_bytes(m.bytes, donor.base, cut_b, donor.image.tail_offset);

  const std::uint64_t a_events = c.image.items_before(i);
  const std::uint64_t b_skip = donor.image.items_before(j);
  m.expected_events.assign(
      c.events.begin(),
      c.events.begin() + static_cast<std::ptrdiff_t>(a_events));
  m.expected_events.insert(
      m.expected_events.end(),
      donor.events.begin() + static_cast<std::ptrdiff_t>(b_skip),
      donor.events.end());
  m.name = "splice:a=" + std::to_string(i) + ":b=" + std::to_string(j);
  if (wire) {
    // The assembler enforces non-decreasing times; whether the splice
    // is decodable depends on the seam.
    m.expect =
        times_monotone(m.expected_events) ? Expect::kEither : Expect::kReject;
    if (m.expect == Expect::kReject) m.name += ":regressing";
    return m;
  }
  patch_log_event_count(m.bytes, m.expected_events.size());
  // Blocks decode independently (delta state resets per block), so the
  // file reader must decode the spliced sequence verbatim.
  m.expect = Expect::kEither;
  std::uint64_t max_object = 0;
  for (const LogEvent& e : m.expected_events) {
    max_object = std::max(max_object, e.object);
  }
  store_le64(m.bytes.data() + 16, max_object + 1);
  return m;
}

Mutation mutate_zero_frame(const LogCase& c, Rng& rng) {
  Mutation m;
  const std::size_t at = rng.uniform_index(c.image.segments.size() + 1);
  const std::size_t pos =
      at == 0 ? c.image.header_bytes : c.image.segments[at - 1].end();
  const std::vector<unsigned char> empty_block = frame_block(0, {});
  m.bytes.assign(c.base.begin(),
                 c.base.begin() + static_cast<std::ptrdiff_t>(pos));
  m.bytes.insert(m.bytes.end(), empty_block.begin(), empty_block.end());
  append_bytes(m.bytes, c.base, pos, c.base.size());
  // A zero-event block is CRC-valid and carries nothing: the stream
  // decodes exactly as before, with no hang and no spurious error.
  m.expect = Expect::kAccept;
  m.expected_events = c.events;
  m.name = "zero-frame:at=" + std::to_string(at);
  return m;
}

Mutation mutate_dup_frame(const LogCase& c, Rng& rng, bool wire) {
  Mutation m;
  const std::size_t k = rng.uniform_index(c.image.segments.size());
  const SegmentSpan& span = c.image.segments[k];
  m.bytes.assign(c.base.begin(),
                 c.base.begin() + static_cast<std::ptrdiff_t>(span.end()));
  append_bytes(m.bytes, c.base, span.offset, span.end());
  append_bytes(m.bytes, c.base, span.end(), c.base.size());

  const std::uint64_t before = c.image.items_before(k);
  const std::uint64_t items = span.items;
  m.expected_events.assign(
      c.events.begin(),
      c.events.begin() + static_cast<std::ptrdiff_t>(before + items));
  m.expected_events.insert(
      m.expected_events.end(),
      c.events.begin() + static_cast<std::ptrdiff_t>(before),
      c.events.end());
  m.name = "dup-frame:segment=" + std::to_string(k);
  if (wire) {
    m.expect =
        times_monotone(m.expected_events) ? Expect::kEither : Expect::kReject;
    if (m.expect == Expect::kReject) m.name += ":regressing";
    return m;
  }
  const bool patch = rng.bernoulli(0.5);
  if (patch) {
    patch_log_event_count(m.bytes, m.expected_events.size());
    m.expect = Expect::kEither;
  } else {
    // Header promises fewer events than the stream holds: the reader
    // must flag the surplus, not silently ignore it.
    m.expect = Expect::kReject;
  }
  m.name += ":patched=" + std::to_string(patch);
  return m;
}

Mutation make_log_mutation(const LogCase& c, Rng& rng,
                           const ScratchDir& scratch) {
  if (c.image.version == EventLogHeader::kVersionRaw) {
    switch (rng.uniform_index(2)) {
      case 0:
        return mutate_truncate(c, rng, /*wire=*/false);
      default:
        return mutate_flip(c, rng, /*wire=*/false);
    }
  }
  switch (rng.uniform_index(8)) {
    case 0:
      return mutate_truncate(c, rng, /*wire=*/false);
    case 1:
      return mutate_flip(c, rng, /*wire=*/false);
    case 2:
      return mutate_overflow(c, rng);
    case 3: {
      const double t0 =
          rng.bernoulli(0.5) ? c.events.back().time + 1.0 : 0.0;
      const LogCase donor = make_donor_case(rng, c, scratch, t0);
      return mutate_splice(c, donor, rng, /*wire=*/false);
    }
    case 4:
      return mutate_zero_frame(c, rng);
    case 5:
      return mutate_dup_frame(c, rng, /*wire=*/false);
    case 6:
      return mutate_truncate(c, rng, /*wire=*/false);
    default:
      return mutate_flip(c, rng, /*wire=*/false);
  }
}

Mutation make_wire_mutation(const LogCase& c, Rng& rng) {
  switch (rng.uniform_index(8)) {
    case 0:
      return mutate_truncate(c, rng, /*wire=*/true);
    case 1:
      return mutate_flip(c, rng, /*wire=*/true);
    case 2:
      return mutate_overflow(c, rng);
    case 3: {
      const double t0 =
          rng.bernoulli(0.5) ? c.events.back().time + 1.0 : 0.0;
      const LogCase donor = make_wire_donor(rng, c, t0);
      return mutate_splice(c, donor, rng, /*wire=*/true);
    }
    case 4:
      return mutate_zero_frame(c, rng);
    case 5:
      return mutate_dup_frame(c, rng, /*wire=*/true);
    case 6:
      return mutate_truncate(c, rng, /*wire=*/true);
    default:
      return mutate_flip(c, rng, /*wire=*/true);
  }
}

DecodeOutcome decode_log_file(const std::string& path, std::size_t file_size,
                              std::size_t event_cap) {
  DecodeOutcome out;
  try {
    EventLogReader reader(path);
    LogEvent e;
    while (reader.next(e)) {
      out.events.push_back(e);
      if (out.events.size() > event_cap) {
        out.kind = DecodeOutcome::Kind::kEscape;
        out.detail = "decode explosion: more than " +
                     std::to_string(event_cap) + " events from a " +
                     std::to_string(file_size) + "-byte log";
        return out;
      }
    }
    const std::uint64_t promised = reader.header().num_events;
    if (promised != EventLogHeader::kUnknownCount &&
        out.events.size() != promised) {
      out.kind = DecodeOutcome::Kind::kEscape;
      out.detail = "accepted with " + std::to_string(out.events.size()) +
                   " events against a header promising " +
                   std::to_string(promised);
      return out;
    }
    if (reader.bytes_read() != file_size) {
      out.kind = DecodeOutcome::Kind::kEscape;
      out.detail = "accepted after consuming " +
                   std::to_string(reader.bytes_read()) + " of " +
                   std::to_string(file_size) +
                   " bytes — trailing data silently ignored";
      return out;
    }
    out.kind = DecodeOutcome::Kind::kAccepted;
  } catch (...) {
    out = classify_throw();
  }
  return out;
}

DecodeOutcome decode_wire_stream(const std::vector<unsigned char>& bytes,
                                 Rng& rng, std::size_t event_cap) {
  DecodeOutcome out;
  try {
    FrameAssembler assembler("fuzz.wire");
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t take =
          std::min(std::size_t{1} + rng.uniform_index(97), bytes.size() - at);
      assembler.feed(bytes.data() + at, take, out.events);
      at += take;
      if (out.events.size() > event_cap) {
        out.kind = DecodeOutcome::Kind::kEscape;
        out.detail = "decode explosion: more than " +
                     std::to_string(event_cap) + " events from a " +
                     std::to_string(bytes.size()) + "-byte stream";
        return out;
      }
    }
    if (!assembler.at_boundary()) {
      // The peer would be closing mid-frame here — the server treats
      // that as a protocol error, so the fuzz oracle counts it as a
      // detected rejection.
      out.kind = DecodeOutcome::Kind::kRejected;
      out.detail = "stream ends mid-frame (close would be rejected)";
      out.events.clear();
      return out;
    }
    out.kind = DecodeOutcome::Kind::kAccepted;
  } catch (...) {
    out = classify_throw();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot cases
// ---------------------------------------------------------------------------

struct SnapCase {
  std::vector<unsigned char> base;
  std::vector<SnapRecord> records;
  SnapshotImage image;
  /// Object-record payload codec the base was written with.
  std::uint32_t codec = SnapshotHeader::kCodecRaw;
};

SnapCase make_snapshot_case(Rng& rng, const ScratchDir& scratch) {
  SnapCase c;
  SnapshotHeader header;
  header.num_servers = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
  header.events_ingested = rng.uniform_index(100000);
  header.batches = rng.uniform_index(500);
  header.base_seed = rng.next_u64();
  header.last_batch_time = rng.uniform(0.0, 1000.0);
  header.flags = SnapshotHeader::kFlagAnyEvent | SnapshotHeader::kFlagLowerBound;
  if (rng.bernoulli(0.7)) {
    header.policy_spec = "drwp(alpha=0.3)";
    header.predictor_spec = "last_gap";
  }
  header.codec = rng.bernoulli(0.5) ? SnapshotHeader::kCodecWord
                                    : SnapshotHeader::kCodecRaw;
  if (rng.bernoulli(0.5)) {
    header.num_partitions =
        1 + static_cast<std::uint32_t>(rng.uniform_index(8));
    header.partition_id =
        static_cast<std::uint32_t>(rng.uniform_index(header.num_partitions));
    header.pf_version = static_cast<std::uint32_t>(rng.uniform_index(3));
  }
  const std::size_t n = 1 + rng.uniform_index(10);
  header.num_objects = n;
  std::uint64_t id = rng.uniform_index(5);
  for (std::size_t i = 0; i < n; ++i) {
    SnapRecord record;
    record.first = id;
    id += 1 + rng.uniform_index(9);
    record.second.resize(rng.uniform_index(65));
    for (unsigned char& b : record.second) {
      b = static_cast<unsigned char>(rng.uniform_index(256));
    }
    c.records.push_back(std::move(record));
  }
  const std::string path = scratch.file("base.ckpt");
  {
    SnapshotWriter writer(path, header);
    for (const SnapRecord& r : c.records) writer.add_object(r.first, r.second);
    writer.close();
  }
  c.base = read_bytes(path);
  c.image = walk_snapshot_image(c.base);
  c.codec = header.codec;
  return c;
}

Mutation mutate_snapshot_truncate(const SnapCase& c, Rng& rng) {
  Mutation m;
  m.expect = Expect::kReject;  // the footer (at least) goes missing
  const std::size_t recs = c.image.records.size();
  if (rng.bernoulli(0.5)) {
    // At a structural boundary: end of header, end of record k, or just
    // before the footer.
    const std::size_t keep = rng.uniform_index(recs + 1);
    const std::size_t cut =
        keep == 0 ? c.image.header_bytes : c.image.records[keep - 1].end();
    m.bytes.assign(c.base.begin(),
                   c.base.begin() + static_cast<std::ptrdiff_t>(cut));
    m.name = "truncate:boundary:keep=" + std::to_string(keep);
    return m;
  }
  std::size_t cut;
  const std::size_t roll = rng.uniform_index(3);
  if (roll == 0 || recs == 0) {
    cut = 1 + rng.uniform_index(std::min(c.base.size() - 1,
                                         c.image.header_bytes));
    m.name = "truncate:mid-header:cut=" + std::to_string(cut);
  } else if (roll == 1) {
    const std::size_t k = rng.uniform_index(recs);
    const SegmentSpan& span = c.image.records[k];
    cut = span.offset + 1 + rng.uniform_index(span.size - 1);
    m.name = "truncate:mid-record:" + std::to_string(k) +
             ":cut=" + std::to_string(cut);
  } else {
    cut = c.base.size() - 1 - rng.uniform_index(7);  // inside the footer
    m.name = "truncate:mid-footer:cut=" + std::to_string(cut);
  }
  m.bytes.assign(c.base.begin(),
                 c.base.begin() + static_cast<std::ptrdiff_t>(cut));
  return m;
}

Mutation mutate_snapshot_flip(const SnapCase& c, Rng& rng) {
  Mutation m;
  m.bytes = c.base;
  const std::size_t region = rng.uniform_index(3);
  std::size_t byte;
  if (region == 0 || c.image.records.empty()) {
    byte = rng.uniform_index(c.image.header_bytes);
  } else if (region == 1) {
    const std::size_t lo = c.image.header_bytes;
    const std::size_t hi = c.image.footer_present ? c.image.footer_offset
                                                  : c.base.size();
    byte = lo + rng.uniform_index(hi - lo);
  } else {
    byte = c.base.size() - 8 + rng.uniform_index(8);  // footer magic
  }
  const std::size_t bit = rng.uniform_index(8);
  flip_bit(m.bytes, byte, bit);
  m.name = "flip:byte=" + std::to_string(byte) + ":bit=" + std::to_string(bit);
  // Every byte is covered: magic and version by their checks, the rest
  // of the header by the header CRC, records by their record CRCs,
  // the footer by its magic.
  m.expect = Expect::kReject;
  return m;
}

Mutation mutate_snapshot_overflow(const SnapCase& c, Rng& rng) {
  Mutation m;
  m.bytes = c.base;
  m.expect = Expect::kReject;
  const std::size_t k = rng.uniform_index(c.image.records.size());
  const std::size_t off = c.image.records[k].offset;
  const std::size_t variant = rng.uniform_index(4);
  unsigned char* rec = m.bytes.data() + off;
  switch (variant) {
    case 0:  // encoded_len implausible, stale record CRC
      store_le32(rec + 8, SnapshotHeader::kMaxEncodedRecordBytes + 1 +
                              static_cast<std::uint32_t>(
                                  rng.uniform_index(1024)));
      break;
    case 1:  // encoded_len implausible, recomputed CRC (plausibility
             // check must fire before any allocation)
      store_le32(rec + 8, SnapshotHeader::kMaxEncodedRecordBytes + 1 +
                              static_cast<std::uint32_t>(
                                  rng.uniform_index(1024)));
      refresh_record_crc(m.bytes, off);
      break;
    case 2:  // raw_len implausible, recomputed CRC
      store_le32(rec + 12, SnapshotHeader::kMaxRecordBytes + 1 +
                               static_cast<std::uint32_t>(
                                   rng.uniform_index(1024)));
      refresh_record_crc(m.bytes, off);
      break;
    default: {  // raw_len lies (decode can't produce it), recomputed CRC
      const std::uint32_t raw_len = load_le32(rec + 12);
      std::uint32_t lied;
      if (c.codec == SnapshotHeader::kCodecWord) {
        // A raw_len that grows the word count can coincidentally
        // re-parse as a *valid* encoding of different content (an
        // unused high control nibble decodes as "repeat previous
        // word"), which no decoder could reject. Lying within the same
        // word count only changes the expected tail length, which the
        // decoder's exact-tail check must always catch.
        const std::uint32_t tail = raw_len % 8;
        const std::uint32_t new_tail =
            (tail + 1 + static_cast<std::uint32_t>(rng.uniform_index(7))) % 8;
        lied = raw_len - tail + new_tail;
      } else {
        // Raw records: any mismatch against encoded_len must fail.
        lied = raw_len + 1 +
               static_cast<std::uint32_t>(rng.uniform_index(64));
      }
      store_le32(rec + 12, lied);
      refresh_record_crc(m.bytes, off);
      break;
    }
  }
  m.name = "overflow:record=" + std::to_string(k) +
           ":variant=" + std::to_string(variant);
  return m;
}

Mutation mutate_snapshot_reorder(const SnapCase& c, Rng& rng) {
  Mutation m;
  m.expect = Expect::kReject;  // ids must be strictly increasing
  const std::size_t recs = c.image.records.size();
  if (recs >= 2 && rng.bernoulli(0.5)) {
    // Swap two adjacent records wholesale (CRCs travel with them).
    const std::size_t k = rng.uniform_index(recs - 1);
    const SegmentSpan& a = c.image.records[k];
    const SegmentSpan& b = c.image.records[k + 1];
    m.bytes.assign(c.base.begin(),
                   c.base.begin() + static_cast<std::ptrdiff_t>(a.offset));
    append_bytes(m.bytes, c.base, b.offset, b.end());
    append_bytes(m.bytes, c.base, a.offset, a.end());
    append_bytes(m.bytes, c.base, b.end(), c.base.size());
    m.name = "reorder:swap=" + std::to_string(k);
    return m;
  }
  // Duplicate record k in place and raise the header's object count:
  // the duplicate id breaks strict ordering.
  const std::size_t k = rng.uniform_index(recs);
  const SegmentSpan& span = c.image.records[k];
  m.bytes.assign(c.base.begin(),
                 c.base.begin() + static_cast<std::ptrdiff_t>(span.end()));
  append_bytes(m.bytes, c.base, span.offset, span.end());
  append_bytes(m.bytes, c.base, span.end(), c.base.size());
  patch_snapshot_object_count(m.bytes, c.image.num_objects + 1);
  m.name = "dup-record:" + std::to_string(k);
  return m;
}

Mutation make_snapshot_mutation(const SnapCase& c, Rng& rng) {
  switch (rng.uniform_index(4)) {
    case 0:
      return mutate_snapshot_truncate(c, rng);
    case 1:
      return mutate_snapshot_flip(c, rng);
    case 2:
      return mutate_snapshot_overflow(c, rng);
    default:
      return mutate_snapshot_reorder(c, rng);
  }
}

DecodeOutcome decode_snapshot_file(const std::string& path) {
  DecodeOutcome out;
  try {
    SnapshotReader reader(path);
    std::uint64_t id = 0;
    std::vector<unsigned char> payload;
    while (reader.next_object(id, payload)) {
      out.records.emplace_back(id, payload);
    }
    out.kind = DecodeOutcome::Kind::kAccepted;
  } catch (...) {
    out = classify_throw();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cluster control-protocol cases
// ---------------------------------------------------------------------------

/// A well-formed worker control session: hello, progress/checkpoints,
/// chunked id-sorted finals, terminal summary — kept as parts so the
/// protocol mutations can rebuild the stream with one rule broken.
struct ClusterCase {
  ControlHello hello;
  std::vector<ControlProgress> progress;
  std::vector<ControlMetrics> metrics;
  std::vector<std::uint64_t> checkpoints;
  std::vector<EngineObjectFinal> finals;
  ControlSummary summary;
  std::size_t finals_chunk = 3;
  std::vector<unsigned char> base;
  ControlImage image;
  /// Frames in `base` (hello + progress + metrics + checkpoints + chunks
  /// + summary).
  std::uint64_t messages = 0;
};

void append_finals_chunks(const std::vector<EngineObjectFinal>& finals,
                          std::size_t chunk,
                          std::vector<unsigned char>& out) {
  for (std::size_t i = 0; i < finals.size(); i += chunk) {
    encode_control_finals(finals.data() + i,
                          std::min(chunk, finals.size() - i), out);
  }
}

std::vector<unsigned char> encode_cluster_stream(const ClusterCase& c) {
  std::vector<unsigned char> out;
  encode_control_header(out);
  encode_control_hello(c.hello, out);
  for (const ControlProgress& p : c.progress) {
    encode_control_progress(p, out);
  }
  for (const ControlMetrics& m : c.metrics) {
    encode_control_metrics(m, out);
  }
  for (std::uint64_t events : c.checkpoints) {
    encode_control_checkpoint({events}, out);
  }
  append_finals_chunks(c.finals, c.finals_chunk, out);
  encode_control_summary(c.summary, out);
  return out;
}

ClusterCase make_cluster_case(Rng& rng) {
  ClusterCase c;
  c.hello.num_partitions = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
  c.hello.partition_id =
      static_cast<std::uint32_t>(rng.uniform_index(c.hello.num_partitions));
  c.hello.pf_version = 1;
  c.hello.num_servers = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
  c.hello.resume_events = rng.bernoulli(0.5) ? rng.uniform_index(100000) : 0;
  c.hello.base_seed = rng.next_u64();

  // At least one progress strictly past the resume floor (the regress
  // mutation needs headroom to regress into).
  std::uint64_t events = c.hello.resume_events;
  std::uint64_t batches = 0;
  const std::size_t np = 1 + rng.uniform_index(5);
  for (std::size_t i = 0; i < np; ++i) {
    events += 1 + rng.uniform_index(5000);
    batches += 1 + rng.uniform_index(3);
    c.progress.push_back({events, batches});
  }
  // Metrics snapshots: valid anywhere between hello and finals. Their
  // bodies carry the federation sample codec, so the flip/truncate
  // mutators exercise that decoder through the control stream too.
  const std::size_t nm = rng.uniform_index(3);
  for (std::size_t i = 0; i < nm; ++i) {
    ControlMetrics m;
    m.trace_id = rng.next_u64();
    m.span_id = rng.next_u64();
    const std::size_t ns = 1 + rng.uniform_index(4);
    for (std::size_t s = 0; s < ns; ++s) {
      obs::Sample sample;
      sample.name = "repl_fuzz_series_" + std::to_string(rng.uniform_index(4));
      sample.help = "fuzz-generated series";
      if (rng.bernoulli(0.5)) {
        sample.labels.push_back(
            {"partition", std::to_string(rng.uniform_index(4))});
      }
      switch (rng.uniform_index(3)) {
        case 0: {
          sample.type = obs::MetricType::kCounter;
          sample.counter_value = rng.uniform_index(1 << 20);
          sample.value = static_cast<double>(sample.counter_value);
          break;
        }
        case 1: {
          sample.type = obs::MetricType::kGauge;
          sample.value = rng.uniform(-1000.0, 1000.0);
          break;
        }
        default: {
          sample.type = obs::MetricType::kHistogram;
          sample.bounds = {0.5, 1.5, 4.5};
          std::uint64_t cum = 0;
          for (std::size_t b = 0; b <= sample.bounds.size(); ++b) {
            cum += rng.uniform_index(50);
            sample.cumulative.push_back(cum);
          }
          sample.count = sample.cumulative.back();
          sample.sum = rng.uniform(0.0, 500.0);
          break;
        }
      }
      m.samples.push_back(std::move(sample));
    }
    c.metrics.push_back(std::move(m));
  }
  std::uint64_t ck = c.hello.resume_events;
  const std::size_t nc = 1 + rng.uniform_index(2);
  for (std::size_t i = 0; i < nc; ++i) {
    ck += 1 + rng.uniform_index(4000);
    c.checkpoints.push_back(ck);
  }
  const std::size_t n = 2 + rng.uniform_index(40);
  std::uint64_t id = rng.uniform_index(5);
  for (std::size_t i = 0; i < n; ++i) {
    EngineObjectFinal final;
    final.id = id;
    id += 1 + rng.uniform_index(9);
    final.events = rng.uniform_index(500);
    final.num_local = rng.uniform_index(400);
    final.num_transfers = rng.uniform_index(100);
    final.online_cost = rng.uniform(0.0, 1000.0);
    final.lower_bound = rng.uniform(0.0, 500.0);
    c.finals.push_back(final);
  }
  c.finals_chunk = 1 + rng.uniform_index(7);
  c.summary.objects = n;
  c.summary.events = events;
  c.summary.num_local = rng.uniform_index(100000);
  c.summary.num_transfers = rng.uniform_index(10000);
  c.summary.online_cost = rng.uniform(0.0, 100000.0);
  c.summary.lower_bound = rng.uniform(0.0, 50000.0);
  c.base = encode_cluster_stream(c);
  c.image = walk_control_image(c.base);
  c.messages = c.image.segments.size();
  return c;
}

/// Truncations: a control stream may only end after its summary, so
/// every proper prefix — boundary or mid-frame — must be rejected.
Mutation mutate_cluster_truncate(const ClusterCase& c, Rng& rng) {
  Mutation m;
  m.expect = Expect::kReject;
  const std::size_t segs = c.image.segments.size();
  if (rng.bernoulli(0.5)) {
    const std::size_t keep = rng.uniform_index(segs);  // proper prefix
    const std::size_t cut =
        keep == 0 ? c.image.header_bytes : c.image.segments[keep - 1].end();
    m.bytes.assign(c.base.begin(),
                   c.base.begin() + static_cast<std::ptrdiff_t>(cut));
    m.name = "truncate:boundary:keep=" + std::to_string(keep);
    return m;
  }
  std::size_t cut;
  if (rng.bernoulli(0.15)) {
    cut = 1 + rng.uniform_index(std::min(c.base.size(), std::size_t{15}));
    m.name = "truncate:mid-header:cut=" + std::to_string(cut);
  } else {
    const std::size_t k = rng.uniform_index(segs);
    const SegmentSpan& span = c.image.segments[k];
    cut = span.offset + 1 + rng.uniform_index(span.size - 1);
    m.name = "truncate:mid-frame:" + std::to_string(k) +
             ":cut=" + std::to_string(cut);
  }
  m.bytes.assign(c.base.begin(),
                 c.base.begin() + static_cast<std::ptrdiff_t>(cut));
  return m;
}

/// Bit flips: every byte of a control stream is covered — header fields
/// are checked verbatim, frames by the frame CRC, bodies by the payload
/// CRC — so a single flip anywhere must be rejected.
Mutation mutate_cluster_flip(const ClusterCase& c, Rng& rng) {
  Mutation m;
  m.bytes = c.base;
  m.expect = Expect::kReject;
  const std::size_t byte = rng.uniform_index(c.base.size());
  const std::size_t bit = rng.uniform_index(8);
  flip_bit(m.bytes, byte, bit);
  m.name = "flip:byte=" + std::to_string(byte) + ":bit=" + std::to_string(bit);
  return m;
}

/// Steering-field tampering with the frame CRC recomputed, so the
/// plausibility / type / size checks (not the CRC) must fire.
Mutation mutate_cluster_overflow(const ClusterCase& c, Rng& rng) {
  Mutation m;
  m.bytes = c.base;
  m.expect = Expect::kReject;
  const std::size_t k = rng.uniform_index(c.image.segments.size());
  const std::size_t off = c.image.segments[k].offset;
  const std::size_t variant = rng.uniform_index(5);
  unsigned char* frame = m.bytes.data() + off;
  switch (variant) {
    case 0:  // implausible length, stale frame CRC
      store_le32(frame, static_cast<std::uint32_t>(kMaxControlBodyBytes) + 1 +
                            static_cast<std::uint32_t>(rng.uniform_index(1024)));
      break;
    case 1:  // implausible length, *valid* frame CRC
      store_le32(frame, static_cast<std::uint32_t>(kMaxControlBodyBytes) + 1 +
                            static_cast<std::uint32_t>(rng.uniform_index(1024)));
      refresh_frame_crc(m.bytes, off);
      break;
    case 2:  // item count raised: body size no longer matches
      store_le32(frame + 4, load_le32(frame + 4) + 1 +
                                static_cast<std::uint32_t>(
                                    rng.uniform_index(1 << 16)));
      refresh_frame_crc(m.bytes, off);
      break;
    case 3:  // type zeroed: below the valid range
      store_le32(frame + 4, load_le32(frame + 4) & 0x00ffffffu);
      refresh_frame_crc(m.bytes, off);
      break;
    default:  // type past kMetrics: unknown message
      store_le32(frame + 4, (load_le32(frame + 4) & 0x00ffffffu) |
                                ((7u + static_cast<std::uint32_t>(
                                           rng.uniform_index(200)))
                                 << 24));
      refresh_frame_crc(m.bytes, off);
      break;
  }
  m.name = "overflow:frame=" + std::to_string(k) +
           ":variant=" + std::to_string(variant);
  return m;
}

/// Protocol-rule violations: each variant rebuilds the stream with one
/// state-machine rule broken; the decoder must reject at the violation.
Mutation mutate_cluster_protocol(const ClusterCase& c, Rng& rng) {
  Mutation m;
  m.expect = Expect::kReject;
  std::vector<unsigned char>& out = m.bytes;
  encode_control_header(out);
  const auto emit_progress = [&] {
    for (const ControlProgress& p : c.progress) {
      encode_control_progress(p, out);
    }
  };
  const std::size_t variant = rng.uniform_index(13);
  switch (variant) {
    case 0: {  // duplicate hello
      encode_control_hello(c.hello, out);
      encode_control_hello(c.hello, out);
      m.name = "protocol:dup-hello";
      break;
    }
    case 1: {  // hello missing: progress opens the stream
      emit_progress();
      m.name = "protocol:missing-hello";
      break;
    }
    case 2: {  // progress regresses below the last report
      encode_control_hello(c.hello, out);
      emit_progress();
      encode_control_progress({c.hello.resume_events, 0}, out);
      m.name = "protocol:progress-regress";
      break;
    }
    case 3: {  // checkpoint position regresses
      encode_control_hello(c.hello, out);
      encode_control_checkpoint({c.checkpoints.back()}, out);
      encode_control_checkpoint({c.hello.resume_events}, out);
      m.name = "protocol:checkpoint-regress";
      break;
    }
    case 4: {  // finals ids out of order (adjacent swap)
      encode_control_hello(c.hello, out);
      std::vector<EngineObjectFinal> finals = c.finals;
      const std::size_t at = rng.uniform_index(finals.size() - 1);
      std::swap(finals[at], finals[at + 1]);
      append_finals_chunks(finals, c.finals_chunk, out);
      m.name = "protocol:finals-unsorted:at=" + std::to_string(at);
      break;
    }
    case 5: {  // duplicated finals id (strictly increasing required)
      encode_control_hello(c.hello, out);
      std::vector<EngineObjectFinal> finals = c.finals;
      const std::size_t at = rng.uniform_index(finals.size());
      finals.insert(finals.begin() + static_cast<std::ptrdiff_t>(at),
                    finals[at]);
      append_finals_chunks(finals, c.finals_chunk, out);
      m.name = "protocol:finals-dup-id:at=" + std::to_string(at);
      break;
    }
    case 6: {  // summary object count disagrees with streamed finals
      encode_control_hello(c.hello, out);
      append_finals_chunks(c.finals, c.finals_chunk, out);
      ControlSummary summary = c.summary;
      summary.objects = c.finals.size() + 1;
      encode_control_summary(summary, out);
      m.name = "protocol:summary-count-mismatch";
      break;
    }
    case 7: {  // progress after finals began
      encode_control_hello(c.hello, out);
      encode_control_finals(c.finals.data(), 1, out);
      encode_control_progress(c.progress.front(), out);
      m.name = "protocol:progress-after-finals";
      break;
    }
    case 8: {  // message after the terminal summary
      encode_control_hello(c.hello, out);
      append_finals_chunks(c.finals, c.finals_chunk, out);
      encode_control_summary(c.summary, out);
      encode_control_progress(c.progress.back(), out);
      m.name = "protocol:message-after-summary";
      break;
    }
    case 9: {  // zero-record finals frame
      encode_control_hello(c.hello, out);
      const std::vector<unsigned char> frame = frame_block(
          static_cast<std::uint32_t>(ControlType::kFinals) << 24, {});
      out.insert(out.end(), frame.begin(), frame.end());
      m.name = "protocol:empty-finals-frame";
      break;
    }
    case 10: {  // non-finals frame claiming an item count
      encode_control_hello(c.hello, out);
      std::vector<unsigned char> framed;
      encode_control_progress(c.progress.front(), framed);
      const std::uint32_t aux = load_le32(framed.data() + 4);
      store_le32(framed.data() + 4,
                 aux | (1u + static_cast<std::uint32_t>(
                                 rng.uniform_index(100))));
      refresh_frame_crc(framed, 0);
      out.insert(out.end(), framed.begin(), framed.end());
      m.name = "protocol:count-on-progress";
      break;
    }
    case 11: {  // metrics once the finals sequence has begun
      encode_control_hello(c.hello, out);
      encode_control_finals(c.finals.data(), 1, out);
      ControlMetrics snapshot;
      snapshot.trace_id = rng.next_u64();
      obs::Sample sample;
      sample.name = "repl_fuzz_series_0";
      sample.type = obs::MetricType::kCounter;
      sample.counter_value = 1;
      snapshot.samples.push_back(std::move(sample));
      encode_control_metrics(snapshot, out);
      m.name = "protocol:metrics-after-finals";
      break;
    }
    default: {  // metrics sample count disagrees with the body
      encode_control_hello(c.hello, out);
      ControlMetrics snapshot;
      snapshot.trace_id = rng.next_u64();
      obs::Sample sample;
      sample.name = "repl_fuzz_series_0";
      sample.type = obs::MetricType::kGauge;
      sample.value = 1.0;
      snapshot.samples.push_back(std::move(sample));
      std::vector<unsigned char> framed;
      encode_control_metrics(snapshot, framed);
      const std::uint32_t aux = load_le32(framed.data() + 4);
      store_le32(framed.data() + 4, aux + 1);  // count 1 -> 2, same body
      refresh_frame_crc(framed, 0);
      out.insert(out.end(), framed.begin(), framed.end());
      m.name = "protocol:metrics-count-mismatch";
      break;
    }
  }
  return m;
}

/// Well-formed variations the decoder must accept in full.
Mutation mutate_cluster_accept(const ClusterCase& c, Rng& rng) {
  Mutation m;
  m.expect = Expect::kAccept;
  const std::size_t variant = rng.uniform_index(4);
  switch (variant) {
    case 0:  // the untouched baseline
      m.bytes = c.base;
      m.expected_messages = c.messages;
      m.expected_count = c.finals.size();
      m.name = "accept:baseline";
      return m;
    case 1: {  // every progress repeated verbatim (equal is not regress)
      ClusterCase dup = c;
      dup.progress.clear();
      for (const ControlProgress& p : c.progress) {
        dup.progress.push_back(p);
        dup.progress.push_back(p);
      }
      m.bytes = encode_cluster_stream(dup);
      m.expected_messages = c.messages + c.progress.size();
      m.expected_count = c.finals.size();
      m.name = "accept:dup-progress";
      return m;
    }
    case 2: {  // checkpoint repeated at the same position
      ClusterCase dup = c;
      dup.checkpoints.push_back(dup.checkpoints.back());
      m.bytes = encode_cluster_stream(dup);
      m.expected_messages = c.messages + 1;
      m.expected_count = c.finals.size();
      m.name = "accept:dup-checkpoint";
      return m;
    }
    default: {  // minimal session: hello straight to an empty summary
      encode_control_header(m.bytes);
      encode_control_hello(c.hello, m.bytes);
      ControlSummary summary = c.summary;
      summary.objects = 0;
      encode_control_summary(summary, m.bytes);
      m.expected_messages = 2;
      m.expected_count = 0;
      m.name = "accept:empty-partition";
      return m;
    }
  }
}

Mutation make_cluster_mutation(const ClusterCase& c, Rng& rng) {
  switch (rng.uniform_index(8)) {
    case 0:
      return mutate_cluster_truncate(c, rng);
    case 1:
      return mutate_cluster_flip(c, rng);
    case 2:
      return mutate_cluster_overflow(c, rng);
    case 3:
    case 4:
    case 5:
      return mutate_cluster_protocol(c, rng);
    case 6:
      return mutate_cluster_accept(c, rng);
    default:
      return mutate_cluster_flip(c, rng);
  }
}

DecodeOutcome decode_cluster_stream(const std::vector<unsigned char>& bytes,
                                    Rng& rng) {
  DecodeOutcome out;
  try {
    ClusterControlAssembler assembler("fuzz.cluster");
    std::vector<ControlMessage> messages;
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t take =
          std::min(std::size_t{1} + rng.uniform_index(97), bytes.size() - at);
      assembler.feed(bytes.data() + at, take, messages);
      at += take;
    }
    out.cluster_messages = assembler.messages_decoded();
    out.cluster_finals = assembler.finals_records();
    if (!assembler.at_boundary()) {
      out.kind = DecodeOutcome::Kind::kRejected;
      out.detail = "stream ends mid-frame (close would be rejected)";
      return out;
    }
    if (!assembler.complete()) {
      // The coordinator treats EOF before the summary as a failed
      // worker, so the oracle counts it as a detected rejection.
      out.kind = DecodeOutcome::Kind::kRejected;
      out.detail = "stream closed before the terminal summary";
      return out;
    }
    out.kind = DecodeOutcome::Kind::kAccepted;
  } catch (...) {
    out = classify_throw();
  }
  return out;
}

/// Cluster verdict: acceptance must reproduce the exact message and
/// finals-record counts the mutation's semantics dictate.
std::string judge_cluster(const Mutation& m, const DecodeOutcome& o) {
  if (o.kind == DecodeOutcome::Kind::kEscape) return o.detail;
  if (o.kind == DecodeOutcome::Kind::kRejected) {
    if (m.expect == Expect::kAccept) {
      return "rejected a well-formed input: " + o.detail;
    }
    return "";
  }
  switch (m.expect) {
    case Expect::kReject:
      return "accepted malformed input and decoded " +
             std::to_string(o.cluster_messages) + " control messages";
    case Expect::kAccept:
    case Expect::kEither:
      if (o.cluster_messages != m.expected_messages) {
        return "silent wrong decode: " + std::to_string(o.cluster_messages) +
               " messages, expected " + std::to_string(m.expected_messages);
      }
      if (o.cluster_finals != m.expected_count) {
        return "silent wrong decode: " + std::to_string(o.cluster_finals) +
               " finals records, expected " +
               std::to_string(m.expected_count);
      }
      return "";
    case Expect::kEitherCount:
    case Expect::kFree:
      return "";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Escape fixtures + the driver
// ---------------------------------------------------------------------------

std::string save_escape_fixture(const FuzzOptions& options, FuzzTarget target,
                                std::size_t case_index,
                                const Mutation& mutation,
                                std::uint32_t num_servers) {
  std::filesystem::create_directories(options.save_dir);
  Fixture fixture;
  switch (target) {
    case FuzzTarget::kLog:
      fixture.target = FixtureTarget::kServe;
      fixture.policy_spec = "drwp(alpha=0.3)";
      fixture.predictor_spec = "last_gap";
      break;
    case FuzzTarget::kSnapshot:
      fixture.target = FixtureTarget::kSnapshot;
      break;
    case FuzzTarget::kWire:
      fixture.target = FixtureTarget::kWire;
      break;
    case FuzzTarget::kCluster:
      fixture.target = FixtureTarget::kCluster;
      break;
  }
  fixture.expect = FixtureExpect::kFailure;
  fixture.num_servers = num_servers;
  fixture.source_name = std::string("fuzz:") + fuzz_target_name(target) +
                        ":seed=" + std::to_string(options.seed) +
                        ":case=" + std::to_string(case_index) + ":" +
                        mutation.name;
  fixture.blob = mutation.bytes;
  // The signature is unknown by construction — an escape means the
  // decoder did NOT fail. Once the decoder is fixed, re-record with
  // `fixture_tool resign` (or minimize, which re-derives it).
  const std::string path =
      (std::filesystem::path(options.save_dir) /
       (std::string(fuzz_target_name(target)) + "-s" +
        std::to_string(options.seed) + "-c" + std::to_string(case_index) +
        ".replfixt"))
          .string();
  write_fixture(path, fixture);
  return path;
}

}  // namespace

const char* fuzz_target_name(FuzzTarget target) {
  switch (target) {
    case FuzzTarget::kLog:
      return "log";
    case FuzzTarget::kSnapshot:
      return "snapshot";
    case FuzzTarget::kWire:
      return "wire";
    case FuzzTarget::kCluster:
      return "cluster";
  }
  return "?";
}

FuzzTarget parse_fuzz_target(const std::string& name) {
  if (name == "log") return FuzzTarget::kLog;
  if (name == "snapshot") return FuzzTarget::kSnapshot;
  if (name == "wire") return FuzzTarget::kWire;
  if (name == "cluster") return FuzzTarget::kCluster;
  throw std::invalid_argument("unknown fuzz target '" + name +
                              "' (expected log, snapshot, wire, or cluster)");
}

FuzzReport fuzz_format(FuzzTarget target, const FuzzOptions& options) {
  FuzzReport report;
  report.target = target;
  report.seed = options.seed;
  ScratchDir scratch(options.scratch_dir);
  std::ostringstream trace;

  for (std::size_t i = 0; i < options.cases; ++i) {
    SplitMix64 mix(options.seed ^
                   (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(i) +
                                             1)));
    Rng rng(mix.next());
    Mutation mutation;
    DecodeOutcome outcome;
    bool snapshot = false;
    bool cluster = false;
    std::uint32_t num_servers = 1;

    switch (target) {
      case FuzzTarget::kLog: {
        const LogCase c = make_log_case(rng, scratch);
        num_servers = c.num_servers;
        mutation = make_log_mutation(c, rng, scratch);
        const std::string path = scratch.file("case.evlog");
        write_bytes(path, mutation.bytes);
        outcome = decode_log_file(path, mutation.bytes.size(),
                                  4096 + 4 * c.events.size());
        break;
      }
      case FuzzTarget::kWire: {
        const LogCase c = make_wire_case(rng);
        num_servers = c.num_servers;
        mutation = make_wire_mutation(c, rng);
        outcome = decode_wire_stream(mutation.bytes, rng,
                                     4096 + 4 * c.events.size());
        break;
      }
      case FuzzTarget::kSnapshot: {
        snapshot = true;
        const SnapCase c = make_snapshot_case(rng, scratch);
        mutation = make_snapshot_mutation(c, rng);
        const std::string path = scratch.file("case.ckpt");
        write_bytes(path, mutation.bytes);
        outcome = decode_snapshot_file(path);
        break;
      }
      case FuzzTarget::kCluster: {
        cluster = true;
        const ClusterCase c = make_cluster_case(rng);
        num_servers = c.hello.num_servers;
        mutation = make_cluster_mutation(c, rng);
        outcome = decode_cluster_stream(mutation.bytes, rng);
        break;
      }
    }

    ++report.cases;
    const std::string escape = cluster
                                   ? judge_cluster(mutation, outcome)
                                   : judge(mutation, outcome, snapshot);
    if (!escape.empty()) {
      FuzzFailure failure;
      failure.case_index = i;
      failure.mutation = mutation.name;
      failure.detail = escape;
      if (!options.save_dir.empty()) {
        failure.fixture_path =
            save_escape_fixture(options, target, i, mutation, num_servers);
      }
      report.failures.push_back(std::move(failure));
      trace << i << ' ' << mutation.name << " => ESCAPE\n";
      if (options.max_failures != 0 &&
          report.failures.size() >= options.max_failures) {
        break;
      }
      continue;
    }
    if (outcome.kind == DecodeOutcome::Kind::kAccepted) {
      ++report.accepted;
      trace << i << ' ' << mutation.name << " => accepted\n";
    } else {
      ++report.rejected;
      trace << i << ' ' << mutation.name << " => rejected\n";
    }
  }
  report.trace = trace.str();
  return report;
}

}  // namespace repl
