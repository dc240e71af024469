#include "replay/fixture.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "checkpoint/snapshot.hpp"
#include "checkpoint/state_io.hpp"
#include "codec/crc32.hpp"
#include "codec/endian.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace repl {

namespace {

constexpr std::uint64_t kFixtureMagic = 0x545849464c504552ULL;   // "REPLFIXT"
constexpr std::uint64_t kFixtureFooter = 0x444e584652504552ULL;  // "REPLFXND"
constexpr std::uint32_t kFixtureVersion = 1;
constexpr std::size_t kFixturePrefixBytes = 32;  // through meta_len
/// Sanity cap on the whole fixture: these are test artifacts, not logs.
constexpr std::uint64_t kMaxFixtureBytes = std::uint64_t{1} << 32;
/// Sanity cap on the server count: SystemConfig stores an int, and the
/// count sizes per-server state downstream, so an untrusted u32 must be
/// bounded well below INT_MAX before it leaves the reader.
constexpr std::uint32_t kMaxFixtureServers = 1u << 20;
/// The one cost horizon a fixture may record: -1, each object's final
/// request (SimulationOptions' default, the only one engines serve).
constexpr double kFixtureHorizon = -1.0;

[[noreturn]] void fixture_fail(const std::string& path,
                               const std::string& what) {
  throw std::runtime_error("fixture " + path + ": " + what);
}

}  // namespace

const char* fixture_target_name(FixtureTarget target) {
  switch (target) {
    case FixtureTarget::kServe:
      return "serve";
    case FixtureTarget::kSnapshot:
      return "snapshot";
    case FixtureTarget::kWire:
      return "wire";
    case FixtureTarget::kCluster:
      return "cluster";
  }
  return "?";
}

FixtureTarget parse_fixture_target(const std::string& name) {
  if (name == "serve") return FixtureTarget::kServe;
  if (name == "snapshot") return FixtureTarget::kSnapshot;
  if (name == "wire") return FixtureTarget::kWire;
  if (name == "cluster") return FixtureTarget::kCluster;
  throw std::invalid_argument("unknown fixture target '" + name +
                              "' (expected serve, snapshot, wire, or "
                              "cluster)");
}

SystemConfig Fixture::system_config() const {
  SystemConfig config;
  config.num_servers = static_cast<int>(num_servers);
  config.transfer_cost = transfer_cost;
  config.initial_server = initial_server;
  config.storage_rates = storage_rates;
  return config;
}

void write_fixture(const std::string& path, const Fixture& fixture) {
  StateWriter meta;
  meta.str(fixture.policy_spec);
  meta.str(fixture.predictor_spec);
  meta.str(fixture.source_name);
  meta.u32(fixture.num_servers);
  meta.f64(fixture.transfer_cost);
  meta.i32(fixture.initial_server);
  meta.u32(static_cast<std::uint32_t>(fixture.storage_rates.size()));
  for (double rate : fixture.storage_rates) meta.f64(rate);
  meta.u64(fixture.base_seed);
  meta.f64(kFixtureHorizon);
  meta.boolean(fixture.compute_lower_bound);
  meta.boolean(false);  // the snapshot codec: engines cut codec 0
  meta.u64(fixture.slice_first_event);
  meta.u64(fixture.slice_events);
  meta.u64(fixture.slice_begin_byte);
  meta.u64(fixture.slice_end_byte);
  meta.u32(static_cast<std::uint32_t>(fixture.cuts.size()));
  for (std::uint64_t cut : fixture.cuts) meta.u64(cut);
  meta.u64(fixture.aggregates.objects);
  meta.u64(fixture.aggregates.events);
  meta.u64(fixture.aggregates.num_local);
  meta.u64(fixture.aggregates.num_transfers);
  meta.f64(fixture.aggregates.online_cost);
  meta.f64(fixture.aggregates.lower_bound);
  meta.str(fixture.signature);

  std::vector<unsigned char> out;
  out.resize(kFixturePrefixBytes);
  store_le64(out.data(), kFixtureMagic);
  store_le32(out.data() + 8, kFixtureVersion);
  store_le32(out.data() + 12, static_cast<std::uint32_t>(fixture.target));
  store_le32(out.data() + 16, static_cast<std::uint32_t>(fixture.expect));
  store_le32(out.data() + 20, 0);
  store_le64(out.data() + 24, meta.size());
  out.insert(out.end(), meta.buffer().begin(), meta.buffer().end());
  unsigned char len[8];
  store_le64(len, fixture.blob.size());
  out.insert(out.end(), len, len + sizeof(len));
  out.insert(out.end(), fixture.blob.begin(), fixture.blob.end());
  unsigned char tail[12];
  store_le32(tail, crc32c(out.data(), out.size()));
  store_le64(tail + 4, kFixtureFooter);
  out.insert(out.end(), tail, tail + sizeof(tail));

  // Atomic replace: a crash mid-write must never leave a half fixture
  // shadowing a good one (same discipline as periodic checkpoints).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) fixture_fail(path, "cannot open for writing");
    file.write(reinterpret_cast<const char*>(out.data()),
               static_cast<std::streamsize>(out.size()));
    file.flush();
    if (!file) fixture_fail(path, "write failed");
  }
  sync_path_best_effort(tmp);
  try {
    rename_and_sync_dir(tmp, path);
  } catch (const std::filesystem::filesystem_error& error) {
    fixture_fail(path, "rename failed: " + error.code().message());
  }
}

Fixture read_fixture(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) fixture_fail(path, "cannot open for reading");
  std::vector<unsigned char> raw(
      (std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  if (file.bad()) fixture_fail(path, "read failed");
  // Smallest legal file: prefix + empty meta + blob_len + crc + footer.
  if (raw.size() < kFixturePrefixBytes + 8 + 12) {
    fixture_fail(path, "truncated (" + std::to_string(raw.size()) + " bytes)");
  }
  if (load_le64(raw.data()) != kFixtureMagic) {
    fixture_fail(path, "bad magic (not a replay fixture)");
  }
  const std::uint32_t version = load_le32(raw.data() + 8);
  if (version != kFixtureVersion) {
    fixture_fail(path, "unsupported version " + std::to_string(version));
  }
  const std::size_t crc_at = raw.size() - 12;
  if (load_le64(raw.data() + crc_at + 4) != kFixtureFooter) {
    fixture_fail(path, "missing footer (truncated or not sealed)");
  }
  if (crc32c(raw.data(), crc_at) != load_le32(raw.data() + crc_at)) {
    fixture_fail(path, "CRC mismatch (corrupt fixture)");
  }

  Fixture fixture;
  const std::uint32_t target = load_le32(raw.data() + 12);
  if (target > static_cast<std::uint32_t>(FixtureTarget::kCluster)) {
    fixture_fail(path, "unknown target " + std::to_string(target));
  }
  fixture.target = static_cast<FixtureTarget>(target);
  const std::uint32_t expect = load_le32(raw.data() + 16);
  if (expect > static_cast<std::uint32_t>(FixtureExpect::kFailure)) {
    fixture_fail(path, "unknown expectation " + std::to_string(expect));
  }
  fixture.expect = static_cast<FixtureExpect>(expect);
  const std::uint64_t meta_len = load_le64(raw.data() + 24);
  if (meta_len > crc_at - kFixturePrefixBytes - 8) {
    fixture_fail(path, "implausible metadata length " +
                           std::to_string(meta_len));
  }
  StateReader meta(raw.data() + kFixturePrefixBytes,
                   static_cast<std::size_t>(meta_len), "fixture " + path);
  fixture.policy_spec = meta.str();
  fixture.predictor_spec = meta.str();
  fixture.source_name = meta.str();
  fixture.num_servers = meta.u32();
  if (fixture.num_servers == 0 || fixture.num_servers > kMaxFixtureServers) {
    meta.fail("implausible server count " +
              std::to_string(fixture.num_servers));
  }
  fixture.transfer_cost = meta.f64();
  fixture.initial_server = meta.i32();
  const std::uint32_t rates = meta.u32();
  // Bounded two ways: by the (already capped) server count, and by the
  // bytes actually present (8 per f64) — so a crafted count fails with a
  // diagnostic before it can drive a huge resize.
  if (rates > fixture.num_servers || rates > meta.remaining() / 8) {
    meta.fail("implausible storage-rate count");
  }
  fixture.storage_rates.resize(rates);
  for (std::uint32_t i = 0; i < rates; ++i) {
    fixture.storage_rates[i] = meta.f64();
  }
  fixture.base_seed = meta.u64();
  const double horizon = meta.f64();
  if (horizon != kFixtureHorizon) {
    meta.fail("unsupported cost horizon " + format_double(horizon) +
              " (engines bill each object up to its final request, "
              "recorded as -1)");
  }
  fixture.compute_lower_bound = meta.boolean();
  meta.boolean();  // the snapshot codec: 0 and 1 replay alike
  fixture.slice_first_event = meta.u64();
  fixture.slice_events = meta.u64();
  fixture.slice_begin_byte = meta.u64();
  fixture.slice_end_byte = meta.u64();
  const std::uint32_t cuts = meta.u32();
  if (cuts > meta.remaining() / 8) meta.fail("implausible cut count");
  fixture.cuts.resize(cuts);
  for (std::uint32_t i = 0; i < cuts; ++i) fixture.cuts[i] = meta.u64();
  fixture.aggregates.objects = meta.u64();
  fixture.aggregates.events = meta.u64();
  fixture.aggregates.num_local = meta.u64();
  fixture.aggregates.num_transfers = meta.u64();
  fixture.aggregates.online_cost = meta.f64();
  fixture.aggregates.lower_bound = meta.f64();
  fixture.signature = meta.str();
  meta.expect_end();

  const std::size_t blob_at = kFixturePrefixBytes +
                              static_cast<std::size_t>(meta_len);
  const std::uint64_t blob_len = load_le64(raw.data() + blob_at);
  if (blob_len > kMaxFixtureBytes ||
      blob_at + 8 + blob_len != crc_at) {
    fixture_fail(path, "implausible blob length " + std::to_string(blob_len));
  }
  fixture.blob.assign(raw.begin() + static_cast<std::ptrdiff_t>(blob_at + 8),
                      raw.begin() + static_cast<std::ptrdiff_t>(crc_at));
  return fixture;
}

std::string failure_signature(const std::string& message) {
  // Two normalizations: directory prefixes go (scratch dirs differ per
  // run; the basename — "slice.evlog" etc. — is stable and kept), and
  // digit runs collapse to '#' (block indices, byte offsets, and counts
  // legitimately drift as an input shrinks; the failure mode must not).
  std::string out;
  out.reserve(message.size());
  std::size_t token_start = 0;  // start of the current token in `out`
  bool in_digits = false;
  for (char c : message) {
    if (c == ' ') {
      token_start = out.size() + 1;
      in_digits = false;
      out.push_back(c);
      continue;
    }
    if (c == '/') {
      // Drop everything of this token so far: only the basename counts.
      out.resize(token_start);
      in_digits = false;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) out.push_back('#');
      in_digits = true;
      continue;
    }
    in_digits = false;
    out.push_back(c);
  }
  return out;
}

SessionCapture::SessionCapture(const CaptureOptions& options,
                               const SystemConfig& config,
                               const EngineOptions& engine_options,
                               std::uint64_t first_event)
    : options_(options) {
  REPL_REQUIRE_MSG(!options.path.empty(), "capture requires a fixture path");
  REPL_REQUIRE_MSG(first_event == 0,
                   "capture requires a fresh engine: a session resumed at "
                   "event " << first_event
                            << " depends on state the fixture cannot embed");
  REPL_REQUIRE_MSG(!engine_options.policy_spec.empty() &&
                       !engine_options.predictor_spec.empty(),
                   "capture requires a spec-built engine (EngineBuilder): "
                   "raw factory lambdas cannot be replayed from a fixture");
  fixture_.target = FixtureTarget::kServe;
  fixture_.expect = FixtureExpect::kParity;
  fixture_.policy_spec = engine_options.policy_spec;
  fixture_.predictor_spec = engine_options.predictor_spec;
  fixture_.source_name = options.source_name;
  fixture_.num_servers = static_cast<std::uint32_t>(config.num_servers);
  fixture_.transfer_cost = config.transfer_cost;
  fixture_.initial_server = config.initial_server;
  fixture_.storage_rates = config.storage_rates;
  fixture_.base_seed = engine_options.base_seed;
  fixture_.compute_lower_bound = engine_options.compute_lower_bound;
  fixture_.slice_first_event = first_event;
  scratch_log_ = options.path + ".slice.tmp";
  writer_ = std::make_unique<EventLogWriter>(scratch_log_,
                                             config.num_servers,
                                             /*num_objects=*/0,
                                             options.log_format);
}

SessionCapture::~SessionCapture() {
  // finish() owns the happy path; anything else is an abandoned capture
  // whose scratch file must not linger.
  writer_.reset();
  if (!scratch_log_.empty()) {
    std::error_code ec;
    std::filesystem::remove(scratch_log_, ec);
  }
}

void SessionCapture::record(const LogEvent* events, std::size_t count) {
  REPL_CHECK_MSG(writer_ != nullptr, "record after finish()");
  for (std::size_t i = 0; i < count; ++i) writer_->write(events[i]);
  events_ += count;
}

void SessionCapture::record_cut(std::uint64_t events_ingested) {
  fixture_.cuts.push_back(events_ingested);
}

void SessionCapture::set_byte_range(std::uint64_t begin, std::uint64_t end) {
  fixture_.slice_begin_byte = begin;
  fixture_.slice_end_byte = end;
}

void SessionCapture::finish(const EngineMetrics& metrics) {
  REPL_CHECK_MSG(writer_ != nullptr, "finish() called twice");
  writer_->close();
  writer_.reset();
  {
    std::ifstream slice(scratch_log_, std::ios::binary);
    if (!slice) fixture_fail(options_.path, "cannot reopen captured slice");
    fixture_.blob.assign((std::istreambuf_iterator<char>(slice)),
                         std::istreambuf_iterator<char>());
    if (slice.bad()) fixture_fail(options_.path, "captured slice read failed");
  }
  std::error_code ec;
  std::filesystem::remove(scratch_log_, ec);
  scratch_log_.clear();
  fixture_.slice_events = events_;
  fixture_.aggregates.objects = metrics.objects;
  fixture_.aggregates.events = metrics.events;
  fixture_.aggregates.num_local = metrics.num_local;
  fixture_.aggregates.num_transfers = metrics.num_transfers;
  fixture_.aggregates.online_cost = metrics.online_cost;
  fixture_.aggregates.lower_bound = metrics.lower_bound;
  write_fixture(options_.path, fixture_);
}

}  // namespace repl
