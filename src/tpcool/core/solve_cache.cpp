#include "tpcool/core/solve_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string_view>
#include <utility>

#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/logging.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::core {

// ------------------------------------------------------------------ cache --

namespace {

/// Telemetry mirrors of the Stats counters, resolved once per process (the
/// hot-path cost is then the one-atomic gate inside add()).
util::TelemetryCounter& hits_counter() {
  static util::TelemetryCounter& cell =
      util::Telemetry::instance().counter("cache.hits");
  return cell;
}
util::TelemetryCounter& misses_counter() {
  static util::TelemetryCounter& cell =
      util::Telemetry::instance().counter("cache.misses");
  return cell;
}
util::TelemetryCounter& evictions_counter() {
  static util::TelemetryCounter& cell =
      util::Telemetry::instance().counter("cache.evictions");
  return cell;
}

}  // namespace

SolveCache::SolveCache(std::size_t capacity) : capacity_(capacity) {
  TPCOOL_REQUIRE(capacity >= 1, "solve cache needs capacity >= 1");
}

void SolveCache::count_miss() {
  ++stats_.misses;
  misses_counter().add();
}

SolveCache::ResultPtr SolveCache::lookup(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  ++stats_.hits;
  hits_counter().add();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->result;
}

void SolveCache::insert(const std::string& key, ResultPtr result) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Values for one key are identical by construction: keep the resident
    // one and refresh its recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(result)});
  index_.emplace(key, lru_.begin());
  evict_over_capacity();
}

void SolveCache::evict_over_capacity() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    evictions_counter().add();
  }
}

SimulationResult SolveCache::get_or_compute(
    const std::string& key,
    const std::function<SimulationResult()>& compute) {
  std::shared_ptr<InFlight> mine;
  {
    std::unique_lock lock(mutex_);
    while (true) {
      if (const ResultPtr hit = lookup(key)) {
        lock.unlock();
        return *hit;  // the deep copy happens outside the lock
      }
      const auto fit = in_flight_.find(key);
      if (fit == in_flight_.end()) break;
      // Another thread is computing this key: wait on its in-flight record
      // and consume the result from it directly.  The record is pinned by
      // this shared reference, so eviction pressure dropping the stored
      // entry between the compute and this wake-up cannot force a
      // recompute — miss/hit counters are exact at any capacity.
      const std::shared_ptr<InFlight> theirs = fit->second;
      ++stats_.waiting;
      compute_done_.wait(lock,
                         [&] { return theirs->result || theirs->failed; });
      --stats_.waiting;
      if (theirs->result) {
        ++stats_.hits;
        hits_counter().add();
        const auto stored = index_.find(key);
        if (stored != index_.end()) {
          lru_.splice(lru_.begin(), lru_, stored->second);
        }
        const ResultPtr result = theirs->result;
        lock.unlock();
        return *result;
      }
      // The computing thread threw; loop and take over (or wait on a newer
      // in-flight record).
    }
    mine = std::make_shared<InFlight>();
    in_flight_.emplace(key, mine);
    count_miss();
  }
  // Compute outside the lock so independent keys solve in parallel.
  ResultPtr result;
  try {
    result = std::make_shared<const SimulationResult>(compute());
  } catch (...) {
    {
      std::lock_guard lock(mutex_);
      mine->failed = true;
      in_flight_.erase(key);
    }
    compute_done_.notify_all();
    throw;
  }
  {
    std::lock_guard lock(mutex_);
    insert(key, result);
    mine->result = result;
    in_flight_.erase(key);
  }
  compute_done_.notify_all();
  return *result;
}

bool SolveCache::try_get(const std::string& key, SimulationResult& out) {
  ResultPtr hit;
  {
    std::lock_guard lock(mutex_);
    hit = lookup(key);
    if (!hit) count_miss();
  }
  if (!hit) return false;
  out = *hit;
  return true;
}

void SolveCache::put(const std::string& key, SimulationResult result) {
  auto shared = std::make_shared<const SimulationResult>(std::move(result));
  std::lock_guard lock(mutex_);
  insert(key, std::move(shared));
}

SolveCache::Stats SolveCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats s = stats_;
  s.size = lru_.size();
  return s;
}

void SolveCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
  const std::size_t waiting = stats_.waiting;  // a gauge, not a counter
  stats_ = Stats{};
  stats_.waiting = waiting;
}

std::vector<SolveCache::Entry> SolveCache::entries() const {
  std::lock_guard lock(mutex_);
  return std::vector<Entry>(lru_.begin(), lru_.end());
}

// ------------------------------------------------------- snapshot codec --
//
// Snapshot file (v4), all integers little-endian, doubles as IEEE-754 bit
// patterns:
//
//   magic   8 bytes  "TPCOOLSC"
//   u32     schema version (SolveCache::kSnapshotVersion)
//   u64     entry count
//   entry*  most- to least-recently-used:
//             u64 FNV-1a digest of the key bytes
//             u64 key length, key bytes
//             u64 payload length, payload bytes (one SimulationResult)
//   u64     FNV-1a digest of every preceding byte of the file
//
// Both directions stream: the writer serializes one entry at a time into
// the temporary file, the reader decodes one entry at a time and checks the
// trailing digest before anything reaches the cache.

namespace {

constexpr char kMagic[8] = {'T', 'P', 'C', 'O', 'O', 'L', 'S', 'C'};
/// Magic + version + entry count.
constexpr std::size_t kHeaderSize = sizeof(kMagic) + 4 + 8;
/// Key digest + key length + payload length.
constexpr std::size_t kEntryOverhead = 3 * 8;

std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t seed = util::kFnvOffsetBasis) {
  for (const char c : data) util::fnv_byte(seed, static_cast<std::uint8_t>(c));
  return seed;
}

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

/// The fields and transient states are most of a payload: on
/// little-endian hosts their bytes already are the format, so copy them in
/// bulk.
void put_f64s(std::string& out, std::span<const double> values) {
  if constexpr (std::endian::native == std::endian::little) {
    out.append(reinterpret_cast<const char*>(values.data()),
               values.size() * sizeof(double));
  } else {
    for (const double value : values) put_f64(out, value);
  }
}

void put_grid(std::string& out, const util::Grid2D<double>& grid) {
  put_u64(out, grid.nx());
  put_u64(out, grid.ny());
  put_f64s(out, grid.data());
}

void put_metrics(std::string& out, const thermal::ThermalMetrics& m) {
  put_f64(out, m.max_c);
  put_f64(out, m.avg_c);
  put_f64(out, m.grad_max_c_per_mm);
  put_u64(out, m.hotspot_cells);
  put_u64(out, m.cell_count);
}

/// Append one SimulationResult, field for field.  Any new field must be
/// added here (and to parse_result) AND bump SolveCache::kSnapshotVersion:
/// old snapshots are refused rather than silently misread.
void serialize_result(std::string& out, const SimulationResult& r) {
  put_metrics(out, r.die);
  put_metrics(out, r.package);
  put_f64(out, r.tcase_c);
  put_f64(out, r.total_power_w);
  put_f64(out, r.power.active_cores_w);
  put_f64(out, r.power.idle_cores_w);
  put_f64(out, r.power.mcio_w);
  put_f64(out, r.power.llc_w);
  put_f64(out, r.syphon.t_sat_c);
  put_f64(out, r.syphon.refrigerant_flow_kg_s);
  put_f64(out, r.syphon.loop_exit_quality);
  put_f64(out, r.syphon.water_outlet_c);
  put_f64(out, r.syphon.q_total_w);
  put_grid(out, r.syphon.htc_map);
  put_grid(out, r.syphon.fluid_temp_map);
  put_u64(out, r.syphon.channels.size());
  for (const thermosyphon::ChannelSummary& ch : r.syphon.channels) {
    put_f64(out, ch.exit_quality);
    put_f64(out, ch.absorbed_w);
    put_u8(out, ch.dried_out ? 1 : 0);
  }
  put_u8(out, r.syphon.any_dryout ? 1 : 0);
  put_grid(out, r.die_field_c);
  put_grid(out, r.package_field_c);
  put_u64(out, r.active_cores.size());
  for (const int core : r.active_cores) {
    put_u64(out, std::bit_cast<std::uint64_t>(static_cast<std::int64_t>(core)));
  }
  // Transient-segment payload.  Steady results serialize an empty end
  // state and zero counters — a few dozen bytes of overhead per entry.
  put_u64(out, r.transient.end_state_c.size());
  put_f64s(out, r.transient.end_state_c);
  put_f64(out, r.transient.peak_tcase_c);
  put_f64(out, r.transient.peak_die_c);
  put_f64(out, r.transient.sim_time_s);
  put_u64(out, r.transient.steps);
  put_u64(out, r.transient.rejected_steps);
}

std::uint64_t decode_u64(std::string_view bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

/// Bounds-checked reader over one in-memory payload; every underflow
/// throws SnapshotError so truncated payloads fail loudly at the exact spot.
class Cursor {
 public:
  explicit Cursor(std::string_view buffer) : buffer_(buffer) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return buffer_.size() - pos_;
  }

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint64_t u64() { return decode_u64(take(8)); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Fill `values` (the mirror of put_f64s).
  void f64s(std::span<double> values) {
    if constexpr (std::endian::native == std::endian::little) {
      const std::string_view bytes = take(values.size() * sizeof(double));
      if (!values.empty()) {  // an empty span's data() may be null
        std::memcpy(values.data(), bytes.data(), bytes.size());
      }
    } else {
      for (double& value : values) value = f64();
    }
  }

  /// A count of `item_size`-byte items must fit the remaining bytes before
  /// it is trusted.
  std::size_t count(const char* what, std::size_t item_size) {
    const std::uint64_t value = u64();
    if (value > remaining() / item_size) {
      throw SnapshotError(std::string("truncated solve-cache snapshot: ") +
                          what + " exceeds the payload");
    }
    return static_cast<std::size_t>(value);
  }

 private:
  std::string_view take(std::size_t size) {
    if (remaining() < size) {
      throw SnapshotError(
          "truncated solve-cache snapshot: unexpected end of payload");
    }
    const std::string_view bytes = buffer_.substr(pos_, size);
    pos_ += size;
    return bytes;
  }

  std::string_view buffer_;
  std::size_t pos_ = 0;
};

util::Grid2D<double> parse_grid(Cursor& cursor) {
  const std::uint64_t nx = cursor.u64();
  const std::uint64_t ny = cursor.u64();
  if (nx == 0 || ny == 0) {
    if (nx != ny) {
      throw SnapshotError("corrupt solve-cache snapshot: half-empty grid");
    }
    return {};
  }
  // Overflow-safe bound: nx * ny doubles must fit the remaining bytes.
  if (nx > (cursor.remaining() / 8) / ny) {
    throw SnapshotError(
        "truncated solve-cache snapshot: grid exceeds the payload");
  }
  util::Grid2D<double> grid(static_cast<std::size_t>(nx),
                            static_cast<std::size_t>(ny));
  cursor.f64s(grid.data());
  return grid;
}

thermal::ThermalMetrics parse_metrics(Cursor& cursor) {
  thermal::ThermalMetrics m;
  m.max_c = cursor.f64();
  m.avg_c = cursor.f64();
  m.grad_max_c_per_mm = cursor.f64();
  m.hotspot_cells = static_cast<std::size_t>(cursor.u64());
  m.cell_count = static_cast<std::size_t>(cursor.u64());
  return m;
}

/// Parse one whole payload; throws SnapshotError on truncation or
/// trailing bytes.
SimulationResult parse_result(std::string_view payload) {
  Cursor cursor(payload);
  SimulationResult r;
  r.die = parse_metrics(cursor);
  r.package = parse_metrics(cursor);
  r.tcase_c = cursor.f64();
  r.total_power_w = cursor.f64();
  r.power.active_cores_w = cursor.f64();
  r.power.idle_cores_w = cursor.f64();
  r.power.mcio_w = cursor.f64();
  r.power.llc_w = cursor.f64();
  r.syphon.t_sat_c = cursor.f64();
  r.syphon.refrigerant_flow_kg_s = cursor.f64();
  r.syphon.loop_exit_quality = cursor.f64();
  r.syphon.water_outlet_c = cursor.f64();
  r.syphon.q_total_w = cursor.f64();
  r.syphon.htc_map = parse_grid(cursor);
  r.syphon.fluid_temp_map = parse_grid(cursor);
  r.syphon.channels.resize(cursor.count("channel list", 17));
  for (thermosyphon::ChannelSummary& ch : r.syphon.channels) {
    ch.exit_quality = cursor.f64();
    ch.absorbed_w = cursor.f64();
    ch.dried_out = cursor.u8() != 0;
  }
  r.syphon.any_dryout = cursor.u8() != 0;
  r.die_field_c = parse_grid(cursor);
  r.package_field_c = parse_grid(cursor);
  r.active_cores.resize(cursor.count("active-core list", 8));
  for (int& core : r.active_cores) {
    core = static_cast<int>(std::bit_cast<std::int64_t>(cursor.u64()));
  }
  r.transient.end_state_c.resize(cursor.count("transient end state", 8));
  cursor.f64s(r.transient.end_state_c);
  r.transient.peak_tcase_c = cursor.f64();
  r.transient.peak_die_c = cursor.f64();
  r.transient.sim_time_s = cursor.f64();
  r.transient.steps = cursor.u64();
  r.transient.rejected_steps = cursor.u64();
  if (cursor.remaining() != 0) {
    throw SnapshotError(
        "corrupt solve-cache snapshot: result payload has trailing bytes");
  }
  return r;
}

/// Output stream that folds every byte it writes into the running digest.
class DigestWriter {
 public:
  explicit DigestWriter(std::ostream& os) : os_(os) {}

  void bytes(std::string_view data) {
    digest_ = fnv1a(data, digest_);
    size_ += data.size();
    os_.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  void u32(std::uint32_t value) {
    std::string buffer;
    put_u32(buffer, value);
    bytes(buffer);
  }
  void u64(std::uint64_t value) {
    std::string buffer;
    put_u64(buffer, value);
    bytes(buffer);
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

 private:
  std::ostream& os_;
  std::uint64_t digest_ = util::kFnvOffsetBasis;
  std::uint64_t size_ = 0;
};

/// Input stream over a file body of known size (the file less its trailing
/// digest) that folds every byte it reads into the running digest.  No
/// read may run past the body, so every length field is checked against
/// the bytes that remain before it is trusted.
class DigestReader {
 public:
  DigestReader(std::istream& is, std::uint64_t body_size, std::string origin)
      : is_(is), remaining_(body_size), origin_(std::move(origin)) {}

  [[nodiscard]] std::uint64_t remaining() const noexcept { return remaining_; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  /// Read `size` body bytes into `out` (replacing its contents).
  void bytes(std::string& out, std::uint64_t size) {
    if (size > remaining_) {
      throw SnapshotError("truncated solve-cache snapshot " + origin_ +
                          ": unexpected end of file");
    }
    read_raw(out, static_cast<std::size_t>(size));
    digest_ = fnv1a(out, digest_);
    remaining_ -= size;
  }
  std::uint32_t u32() {
    bytes(scratch_, 4);
    return static_cast<std::uint32_t>(decode_u64(scratch_));
  }
  std::uint64_t u64() {
    bytes(scratch_, 8);
    return decode_u64(scratch_);
  }
  /// A length field must fit the remaining body before it is trusted.
  std::uint64_t length(const char* what) {
    const std::uint64_t value = u64();
    if (value > remaining_) {
      throw SnapshotError("truncated solve-cache snapshot " + origin_ + ": " +
                          what + " length exceeds the file");
    }
    return value;
  }
  /// The recorded trailing digest, read once the body is consumed.
  std::uint64_t trailer() {
    read_raw(scratch_, 8);
    return decode_u64(scratch_);
  }

 private:
  void read_raw(std::string& out, std::size_t size) {
    out.resize(size);
    is_.read(out.data(), static_cast<std::streamsize>(size));
    if (!is_) {
      throw SnapshotError("cannot read solve-cache snapshot " + origin_);
    }
  }

  std::istream& is_;
  std::uint64_t remaining_;
  std::string origin_;
  std::uint64_t digest_ = util::kFnvOffsetBasis;
  std::string scratch_;
};

/// Snapshot-size warning threshold in bytes; TPCOOL_SOLVE_CACHE_WARN_MB
/// overrides the 64 MB default (fractions allowed, <= 0 disables).  Read
/// on every save — saves are rare and tests flip the env var between them.
std::uint64_t snapshot_warn_bytes() {
  double warn_mb = 64.0;
  if (const char* env = std::getenv("TPCOOL_SOLVE_CACHE_WARN_MB")) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && *end == '\0' && std::isfinite(parsed)) {
      warn_mb = parsed;
    } else {
      std::fprintf(stderr,
                   "tpcool: ignoring TPCOOL_SOLVE_CACHE_WARN_MB=%s "
                   "(want a finite number of megabytes)\n",
                   env);
    }
  }
  if (warn_mb <= 0.0) return 0;  // disabled
  const double bytes = warn_mb * 1024.0 * 1024.0;
  // A threshold past the integer range can never fire; saturate instead of
  // the UB a float-to-integer overflow would be.
  if (bytes >= static_cast<double>(std::numeric_limits<std::uint64_t>::max())) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(bytes);
}

}  // namespace

std::uint64_t SolveCache::write_snapshot(const std::string& path,
                                         const std::vector<Entry>& entries) {
  // Unique temp per (process, write): concurrent writers to one path then
  // interleave as whole-file renames (last wins), never as mixed bytes.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(sequence.fetch_add(1));
  std::uint64_t size = 0;
  {
    std::ofstream os(temp, std::ios::binary | std::ios::trunc);
    if (!os) throw SnapshotError("cannot open " + temp + " for writing");
    DigestWriter out(os);
    out.bytes({kMagic, sizeof(kMagic)});
    out.u32(kSnapshotVersion);
    out.u64(entries.size());
    std::string payload;  // reused: one entry in memory at a time
    for (const Entry& entry : entries) {
      payload.clear();
      serialize_result(payload, *entry.result);
      out.u64(fnv1a(entry.key));
      out.u64(entry.key.size());
      out.bytes(entry.key);
      out.u64(payload.size());
      out.bytes(payload);
    }
    std::string trailer;
    put_u64(trailer, out.digest());
    os.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
    os.flush();
    if (!os) {
      std::error_code ec;
      std::filesystem::remove(temp, ec);
      throw SnapshotError("short write to " + temp);
    }
    size = out.size() + trailer.size();
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::filesystem::remove(temp, ec);
    throw SnapshotError("cannot rename " + temp + " to " + path);
  }
  return size;
}

std::vector<SolveCache::Entry> SolveCache::read_snapshot(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw SnapshotError("cannot open solve-cache file " + path);
  // Size the file through the opened handle, not the path: a concurrent
  // writer may rename a new snapshot over `path` meanwhile.
  const std::streamoff file_size = is.tellg();
  is.seekg(0);
  if (file_size < 0 || !is) {
    throw SnapshotError("cannot read solve-cache file " + path);
  }
  if (static_cast<std::uint64_t>(file_size) < kHeaderSize + 8) {
    throw SnapshotError("truncated solve-cache snapshot " + path +
                        ": shorter than the fixed header");
  }
  DigestReader in(is, static_cast<std::uint64_t>(file_size) - 8, path);

  std::string magic;
  in.bytes(magic, sizeof(kMagic));
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    throw SnapshotError(path + " is not a solve-cache snapshot (bad magic)");
  }
  // Version before entries: another schema gets this clear refusal rather
  // than a parse error somewhere in its first payload.
  const std::uint32_t version = in.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("solve-cache snapshot " + path +
                        " has schema version " + std::to_string(version) +
                        "; this build reads only version " +
                        std::to_string(kSnapshotVersion) +
                        " — delete it and re-warm");
  }
  const std::uint64_t entry_count = in.u64();
  if (entry_count > in.remaining() / kEntryOverhead) {
    throw SnapshotError("corrupt solve-cache snapshot " + path +
                        ": entry count exceeds the file");
  }

  std::vector<Entry> entries;
  std::string key;
  std::string payload;
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    const std::uint64_t recorded_digest = in.u64();
    in.bytes(key, in.length("key"));
    if (fnv1a(key) != recorded_digest) {
      throw SnapshotError("corrupt solve-cache snapshot " + path +
                          ": key digest mismatch at entry " +
                          std::to_string(i));
    }
    in.bytes(payload, in.length("payload"));
    entries.push_back(Entry{
        key, std::make_shared<const SimulationResult>(parse_result(payload))});
  }
  if (in.remaining() != 0) {
    throw SnapshotError("corrupt solve-cache snapshot " + path +
                        ": trailing bytes after the last entry");
  }
  if (in.trailer() != in.digest()) {
    throw SnapshotError("corrupt solve-cache snapshot " + path +
                        ": stream digest mismatch (truncated or damaged)");
  }
  return entries;
}

// --------------------------------------------------------- persistence --

void SolveCache::save(const std::string& path) const {
  util::TraceSpan span("cache.save");
  span.detail(path);
  const std::uint64_t bytes = write_snapshot(path, entries());
  span.arg("bytes", static_cast<double>(bytes));
  const std::uint64_t warn_bytes = snapshot_warn_bytes();
  if (warn_bytes > 0 && bytes > warn_bytes) {
    util::log_warn() << "solve-cache snapshot " << path << " is "
                     << static_cast<double>(bytes) / (1024.0 * 1024.0)
                     << " MB (warn threshold "
                     << static_cast<double>(warn_bytes) / (1024.0 * 1024.0)
                     << " MB; raise TPCOOL_SOLVE_CACHE_WARN_MB or lower "
                        "TPCOOL_SOLVE_CACHE_CAPACITY)";
  }
}

void SolveCache::load(const std::string& path) {
  util::TraceSpan span("cache.load");
  span.detail(path);
  // Decode and validate everything *before* touching the cache: a snapshot
  // that fails validation leaves the cache exactly as it was.
  std::vector<Entry> loaded = read_snapshot(path);
  std::lock_guard lock(mutex_);
  for (Entry& entry : loaded) {
    if (index_.contains(entry.key)) continue;  // existing entries win
    lru_.push_back(std::move(entry));
    index_.emplace(lru_.back().key, std::prev(lru_.end()));
  }
  evict_over_capacity();
}

std::uint64_t SolveCache::content_digest() const {
  std::uint64_t sum = 0;
  std::string payload;
  for (const Entry& entry : entries()) {
    payload.clear();
    serialize_result(payload, *entry.result);
    sum += fnv1a(payload, fnv1a(entry.key));
  }
  return sum;
}

namespace {

/// Caches registered for save-at-exit; holds shared ownership so the
/// snapshot can be written even if all other references are gone.
struct PersistenceRegistry {
  std::mutex mutex;
  bool atexit_registered = false;
  std::vector<std::pair<std::shared_ptr<SolveCache>, std::string>> entries;

  static PersistenceRegistry& instance() {
    static PersistenceRegistry registry;
    return registry;
  }

  static void save_all() {
    PersistenceRegistry& registry = instance();
    std::lock_guard lock(registry.mutex);
    for (const auto& [cache, path] : registry.entries) {
      try {
        // Merge-save: fold the current on-disk snapshot back in first
        // (in-memory entries win), so a process that cleared or only
        // partially exercised the cache never shrinks the snapshot —
        // warmth accumulates monotonically, bounded by the capacity.
        try {
          cache->load(path);
        } catch (const SnapshotError&) {
          // Missing or damaged file: save fresh.
        }
        cache->save(path);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "tpcool: solve-cache save to %s failed: %s\n",
                     path.c_str(), error.what());
      }
    }
  }
};

}  // namespace

void SolveCache::attach_persistent_file(
    const std::shared_ptr<SolveCache>& cache, std::string path) {
  TPCOOL_REQUIRE(cache != nullptr, "attach_persistent_file needs a cache");
  TPCOOL_REQUIRE(!path.empty(), "attach_persistent_file needs a path");
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    try {
      cache->load(path);
    } catch (const SnapshotError& error) {
      // A bad snapshot must never fail the run; start cold and the exit
      // save will replace it with a good one.
      std::fprintf(stderr, "tpcool: ignoring solve-cache snapshot: %s\n",
                   error.what());
    }
  }
  PersistenceRegistry& registry = PersistenceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  // One snapshot path per cache, last attach wins: an explicit attach
  // replaces the TPCOOL_SOLVE_CACHE_FILE registration made by global(),
  // so the env path is not also rewritten at exit.  The displacement is
  // deliberate but must be visible — the first path will NOT be rewritten.
  for (auto& [existing, existing_path] : registry.entries) {
    if (existing == cache) {
      if (existing_path != path) {
        util::log_warn() << "solve-cache snapshot path " << path
                         << " displaces previously attached " << existing_path
                         << " (last attach wins; " << existing_path
                         << " will not be rewritten at exit)";
      }
      existing_path = std::move(path);
      return;
    }
  }
  registry.entries.emplace_back(cache, std::move(path));
  if (!registry.atexit_registered) {
    // The registry (a function-local static) is constructed before this
    // handler registers, so it is destroyed after the handler runs.
    std::atexit(&PersistenceRegistry::save_all);
    registry.atexit_registered = true;
  }
}

const std::shared_ptr<SolveCache>& SolveCache::global() {
  static const std::shared_ptr<SolveCache> cache = [] {
    auto created = std::make_shared<SolveCache>(util::env_positive_integer(
        "TPCOOL_SOLVE_CACHE_CAPACITY", kDefaultCapacity));
    if (const char* path = std::getenv("TPCOOL_SOLVE_CACHE_FILE")) {
      if (path[0] != '\0') attach_persistent_file(created, path);
    }
    return created;
  }();
  return cache;
}

void append_key_bits(std::string& key, double value) {
  static const char* hex = "0123456789abcdef";
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 60; shift >= 0; shift -= 4) {
    key.push_back(hex[(bits >> shift) & 0xF]);
  }
  key.push_back(';');
}

std::string solve_request_key(const workload::BenchmarkProfile& bench,
                              const workload::Configuration& config,
                              const std::vector<int>& cores,
                              power::CState idle_state) {
  // Per-core powers depend only on which cores are active, so placements
  // that permute the same set share one entry (the oracle enumerates sorted
  // subsets, heuristics return rack order).  ServerModel restores the
  // caller's ordering in SimulationResult::active_cores after a hit.
  std::vector<int> sorted_cores = cores;
  std::sort(sorted_cores.begin(), sorted_cores.end());
  std::string key;
  key.reserve(192);
  // The full profile, not just the name: two profiles may share a name but
  // differ in parameters (tests build custom ones).
  key += bench.name;
  key.push_back(';');
  append_key_bits(key, bench.c_eff_w_per_ghz_v2);
  append_key_bits(key, bench.smt_yield);
  append_key_bits(key, bench.serial_fraction);
  append_key_bits(key, bench.scaling_exponent);
  append_key_bits(key, bench.mem_intensity);
  append_key_bits(key, bench.tolerable_latency_us);
  key += std::to_string(config.cores);
  key.push_back(',');
  key += std::to_string(config.threads_per_core);
  key.push_back(',');
  append_key_bits(key, config.freq_ghz);
  for (const int core : sorted_cores) {
    key += std::to_string(core);
    key.push_back(',');
  }
  key.push_back(';');
  key += std::to_string(static_cast<int>(idle_state));
  return key;
}

std::string segment_request_key(const std::string& scope,
                                const workload::BenchmarkProfile& bench,
                                const workload::Configuration& config,
                                const std::vector<int>& cores,
                                power::CState idle_state,
                                const thermosyphon::OperatingPoint& op,
                                double duration_s,
                                const thermal::StepControlConfig& step_control,
                                double fixed_dt_s,
                                const std::vector<double>& initial_field_c) {
  // 128-bit initial-field digest: two FNV-1a streams over the exact cell
  // bit patterns, differing only in seed.  A single 64-bit stream invites
  // birthday collisions at fleet scale; two independent seeds push the
  // collision probability below any practical run length while keeping the
  // key a fixed, small size.
  std::uint64_t lo = util::kFnvOffsetBasis;
  std::uint64_t hi = util::kFnvOffsetBasis ^ 0x9e3779b97f4a7c15ULL;
  for (const double value : initial_field_c) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int shift = 0; shift < 64; shift += 8) {
      const auto byte = static_cast<unsigned char>((bits >> shift) & 0xFF);
      lo = (lo ^ byte) * util::kFnvPrime;
      hi = (hi ^ byte) * util::kFnvPrime;
    }
  }
  std::string key = "segment;";
  key += scope;
  key.push_back(';');
  key += solve_request_key(bench, config, cores, idle_state);
  key.push_back(';');
  append_key_bits(key, op.water_flow_kg_h);
  append_key_bits(key, op.water_inlet_c);
  append_key_bits(key, duration_s);
  append_key_bits(key, step_control.tolerance_c);
  append_key_bits(key, step_control.min_dt_s);
  append_key_bits(key, step_control.max_dt_s);
  append_key_bits(key, step_control.initial_dt_s);
  append_key_bits(key, step_control.max_growth);
  append_key_bits(key, step_control.safety);
  append_key_bits(key, fixed_dt_s);
  key += std::to_string(initial_field_c.size());
  key.push_back(';');
  append_key_bits(key, std::bit_cast<double>(lo));
  append_key_bits(key, std::bit_cast<double>(hi));
  return key;
}

}  // namespace tpcool::core
