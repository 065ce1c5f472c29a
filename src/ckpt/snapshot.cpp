#include "ckpt/snapshot.hpp"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/atomic_file.hpp"

namespace entk::ckpt {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

// ------------------------------------------------------------ encoding

// The format is defined little-endian, and fixed-width fields are
// copied straight out of their in-memory representation.
static_assert(std::endian::native == std::endian::little,
              "snapshot encoding assumes a little-endian host");

/// 8 magic + 4 version + 8 payload size + 8 checksum.
constexpr std::size_t kHeaderSize = sizeof(kSnapshotMagic) + 4 + 8 + 8;

/// Encodes fields at a cursor. A Writer built without a buffer only
/// measures: encode_snapshot runs the one put_* walk twice, first to
/// size the file image exactly, then to fill it, so the image is
/// allocated once and never regrown or copied.
class Writer {
 public:
  Writer() = default;
  explicit Writer(char* out) : out_(out) {}

  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) {
    static_assert(sizeof(v) == sizeof(std::uint64_t),
                  "double must be 64-bit");
    raw(&v, sizeof(v));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& v) {
    u64(v.size());
    raw(v.data(), v.size());
  }
  void status(const Status& v) {
    u32(static_cast<std::uint32_t>(v.code()));
    str(v.message());
  }
  void rng(const Xoshiro256::State& v) {
    for (const std::uint64_t word : v.words) u64(word);
    f64(v.cached_normal);
    boolean(v.has_cached_normal);
  }
  void raw(const void* data, std::size_t n) {
    if (out_ != nullptr) std::memcpy(out_ + size_, data, n);
    size_ += n;
  }

  std::size_t size() const { return size_; }

 private:
  char* out_ = nullptr;
  std::size_t size_ = 0;
};

void put_staging(Writer& w, const std::vector<pilot::StagingDirective>& v) {
  w.u64(v.size());
  for (const auto& directive : v) {
    w.str(directive.source);
    w.str(directive.target);
    w.u8(static_cast<std::uint8_t>(directive.action));
    w.f64(directive.size_mb);
  }
}

void put_description(Writer& w, const pilot::UnitDescription& d) {
  w.str(d.name);
  w.str(d.session);
  w.str(d.executable);
  w.u64(d.arguments.size());
  for (const auto& arg : d.arguments) w.str(arg);
  w.u64(d.environment.size());
  for (const auto& [key, value] : d.environment) {
    w.str(key);
    w.str(value);
  }
  w.u64(static_cast<std::uint64_t>(d.cores));
  w.boolean(d.uses_mpi);
  put_staging(w, d.input_staging);
  put_staging(w, d.output_staging);
  w.f64(d.simulated_duration);
  w.boolean(d.simulated_fail);
  w.boolean(d.simulated_hang);
  w.u64(static_cast<std::uint64_t>(d.retry.max_retries));
  w.f64(d.retry.backoff_base);
  w.f64(d.retry.backoff_multiplier);
  w.f64(d.retry.backoff_max);
  w.f64(d.retry.jitter);
  w.f64(d.retry.execution_timeout);
}

void put_unit_state(Writer& w, const pilot::ComputeUnit::SavedState& s) {
  w.u8(static_cast<std::uint8_t>(s.state));
  w.status(s.final_status);
  w.u64(static_cast<std::uint64_t>(s.retries));
  w.u64(static_cast<std::uint64_t>(s.epoch));
  w.f64(s.created_at);
  w.f64(s.submitted_at);
  w.f64(s.exec_started_at);
  w.f64(s.exec_stopped_at);
  w.f64(s.finished_at);
}

void put_agent(Writer& w, const pilot::SimAgent::SavedState& a) {
  w.u64(static_cast<std::uint64_t>(a.capacity));
  w.u64(static_cast<std::uint64_t>(a.free));
  w.u64(a.running);
  w.u64(a.next_launch_seq);
  w.u64(a.scheduler_cycles);
  w.f64(a.spawn_total);
  w.u64(a.spawner_free_at.size());
  for (const TimePoint t : a.spawner_free_at) w.f64(t);
  w.u64(a.waiting.size());
  for (const auto& uid : a.waiting) w.str(uid);
  w.u64(a.active.size());
  for (const auto& [seq, uid] : a.active) {
    w.u64(seq);
    w.str(uid);
  }
  w.u64(a.events.size());
  for (const auto& event : a.events) {
    w.str(event.uid);
    w.u8(static_cast<std::uint8_t>(event.kind));
    w.f64(event.time);
    w.u64(event.seq);
  }
}

void put_faults(Writer& w, const sim::FaultModel::SavedState& f) {
  w.rng(f.fork_rng);
  w.rng(f.launch_rng);
  w.rng(f.hang_rng);
  w.u64(f.consumers.size());
  for (const auto& consumer : f.consumers) {
    w.u64(static_cast<std::uint64_t>(consumer.nodes_left));
    w.rng(consumer.rng);
  }
  w.u64(static_cast<std::uint64_t>(f.node_failures));
  w.u64(static_cast<std::uint64_t>(f.launch_failures));
  w.u64(static_cast<std::uint64_t>(f.hangs));
  w.u64(f.trace.size());
  for (const auto& line : f.trace) w.str(line);
  w.u64(f.armed.size());
  for (const auto& armed : f.armed) {
    w.u64(armed.consumer);
    w.f64(armed.time);
    w.u64(armed.seq);
  }
}

void put_graph(Writer& w, const core::GraphExecutor::SavedState& g) {
  w.u64(g.nodes.size());
  for (const auto& node : g.nodes) {
    w.u8(static_cast<std::uint8_t>(node.status));
    w.str(node.unit_uid);
    w.status(node.error);
  }
  w.u64(g.groups.size());
  for (const auto& group : g.groups) {
    w.u64(group.settled);
    w.u64(group.done);
    w.boolean(group.decided);
    w.boolean(group.passed);
  }
  w.u64(g.chain_sets_decided.size());
  for (const bool decided : g.chain_sets_decided) w.boolean(decided);
  w.u64(g.expander_stack.size());
  for (const std::size_t index : g.expander_stack) w.u64(index);
  w.u64(g.expanders_seen);
  w.u64(g.expander_log.size());
  for (const auto& [index, produced] : g.expander_log) {
    w.u64(index);
    w.boolean(produced);
  }
  w.u64(g.errors.size());
  for (const auto& [node, error] : g.errors) {
    w.u64(node);
    w.status(error);
  }
  w.u64(g.inflight);
  w.u64(g.submitted_count);
  w.boolean(g.aborted);
  w.status(g.abort_status);
}

// ------------------------------------------------------------ decoding

/// Bounds-checked little-endian reader. The first out-of-bounds access
/// latches a diagnostic error; all subsequent reads return zero
/// values, so decoders can run straight through and check status()
/// once at the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  double f64() { return fixed<double>(); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint64_t size = u64();
    // The length itself is attacker-controlled on a corrupt file; it
    // must fit in what is actually left before any allocation happens.
    if (size > data_.size() - pos_ || !require(size)) {
      fail("string length " + std::to_string(size) +
           " exceeds the remaining payload");
      return {};
    }
    std::string v(data_.substr(pos_, size));
    pos_ += size;
    return v;
  }
  Status read_status() {
    const std::uint32_t code = u32();
    std::string message = str();
    if (code > static_cast<std::uint32_t>(Errc::kIoError)) {
      fail("status code " + std::to_string(code) + " out of range");
      return Status::ok();
    }
    return Status(static_cast<Errc>(code), std::move(message));
  }
  Xoshiro256::State rng() {
    Xoshiro256::State v;
    for (std::uint64_t& word : v.words) word = u64();
    v.cached_normal = f64();
    v.has_cached_normal = boolean();
    return v;
  }
  /// Validates an enum ordinal read as u8.
  std::uint8_t ordinal(std::uint8_t max, const char* what) {
    const std::uint8_t v = u8();
    if (ok_ && v > max) {
      fail(std::string(what) + " ordinal " + std::to_string(v) +
           " out of range");
      return 0;
    }
    return v;
  }
  /// A count about to drive a loop of >= `element_size`-byte records:
  /// must fit in the remaining payload, or a corrupt length would
  /// spin the decoder on billions of zero reads.
  std::uint64_t count(std::size_t element_size) {
    const std::uint64_t v = u64();
    if (ok_ && v * element_size > data_.size() - pos_) {
      fail("element count " + std::to_string(v) +
           " exceeds the remaining payload");
      return 0;
    }
    return v;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == data_.size(); }
  Status error() const {
    return ok_ ? Status::ok() : make_error(Errc::kIoError, message_);
  }

 private:
  template <typename T>
  T fixed() {
    T v{};
    if (!require(sizeof(T))) return v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  bool require(std::size_t n) {
    if (!ok_) return false;
    if (data_.size() - pos_ < n) {
      fail("payload truncated (need " + std::to_string(n) +
           " bytes at offset " + std::to_string(pos_) + ")");
      return false;
    }
    return true;
  }
  void fail(const std::string& message) {
    if (!ok_) return;
    ok_ = false;
    message_ = "corrupt snapshot: " + message;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string message_;
};

std::vector<pilot::StagingDirective> get_staging(Reader& r) {
  std::vector<pilot::StagingDirective> v;
  const std::uint64_t n = r.count(18);
  v.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    pilot::StagingDirective directive;
    directive.source = r.str();
    directive.target = r.str();
    directive.action = static_cast<pilot::StagingDirective::Action>(
        r.ordinal(2, "staging action"));
    directive.size_mb = r.f64();
    v.push_back(std::move(directive));
  }
  return v;
}

pilot::UnitDescription get_description(Reader& r, std::uint32_t version) {
  pilot::UnitDescription d;
  d.name = r.str();
  if (version >= 2) d.session = r.str();
  d.executable = r.str();
  const std::uint64_t n_args = r.count(8);
  for (std::uint64_t i = 0; i < n_args && r.ok(); ++i) {
    d.arguments.push_back(r.str());
  }
  const std::uint64_t n_env = r.count(16);
  for (std::uint64_t i = 0; i < n_env && r.ok(); ++i) {
    std::string key = r.str();
    d.environment[std::move(key)] = r.str();
  }
  d.cores = static_cast<Count>(r.u64());
  d.uses_mpi = r.boolean();
  d.input_staging = get_staging(r);
  d.output_staging = get_staging(r);
  d.simulated_duration = r.f64();
  d.simulated_fail = r.boolean();
  d.simulated_hang = r.boolean();
  d.retry.max_retries = static_cast<Count>(r.u64());
  d.retry.backoff_base = r.f64();
  d.retry.backoff_multiplier = r.f64();
  d.retry.backoff_max = r.f64();
  d.retry.jitter = r.f64();
  d.retry.execution_timeout = r.f64();
  return d;
}

pilot::ComputeUnit::SavedState get_unit_state(Reader& r) {
  pilot::ComputeUnit::SavedState s;
  s.state = static_cast<pilot::UnitState>(r.ordinal(7, "unit state"));
  s.final_status = r.read_status();
  s.retries = static_cast<Count>(r.u64());
  s.epoch = static_cast<Count>(r.u64());
  s.created_at = r.f64();
  s.submitted_at = r.f64();
  s.exec_started_at = r.f64();
  s.exec_stopped_at = r.f64();
  s.finished_at = r.f64();
  return s;
}

pilot::SimAgent::SavedState get_agent(Reader& r) {
  pilot::SimAgent::SavedState a;
  a.capacity = static_cast<Count>(r.u64());
  a.free = static_cast<Count>(r.u64());
  a.running = r.u64();
  a.next_launch_seq = r.u64();
  a.scheduler_cycles = r.u64();
  a.spawn_total = r.f64();
  const std::uint64_t n_spawners = r.count(8);
  for (std::uint64_t i = 0; i < n_spawners && r.ok(); ++i) {
    a.spawner_free_at.push_back(r.f64());
  }
  const std::uint64_t n_waiting = r.count(8);
  for (std::uint64_t i = 0; i < n_waiting && r.ok(); ++i) {
    a.waiting.push_back(r.str());
  }
  const std::uint64_t n_active = r.count(16);
  for (std::uint64_t i = 0; i < n_active && r.ok(); ++i) {
    const std::uint64_t seq = r.u64();
    a.active.emplace_back(seq, r.str());
  }
  const std::uint64_t n_events = r.count(25);
  for (std::uint64_t i = 0; i < n_events && r.ok(); ++i) {
    pilot::SimAgent::SavedState::PendingEvent event;
    event.uid = r.str();
    event.kind =
        static_cast<pilot::UnitEventKind>(r.ordinal(4, "unit event kind"));
    event.time = r.f64();
    event.seq = r.u64();
    a.events.push_back(std::move(event));
  }
  return a;
}

sim::FaultModel::SavedState get_faults(Reader& r) {
  sim::FaultModel::SavedState f;
  f.fork_rng = r.rng();
  f.launch_rng = r.rng();
  f.hang_rng = r.rng();
  const std::uint64_t n_consumers = r.count(49);
  for (std::uint64_t i = 0; i < n_consumers && r.ok(); ++i) {
    sim::FaultModel::SavedState::ConsumerState consumer;
    consumer.nodes_left = static_cast<Count>(r.u64());
    consumer.rng = r.rng();
    f.consumers.push_back(consumer);
  }
  f.node_failures = static_cast<Count>(r.u64());
  f.launch_failures = static_cast<Count>(r.u64());
  f.hangs = static_cast<Count>(r.u64());
  const std::uint64_t n_trace = r.count(8);
  for (std::uint64_t i = 0; i < n_trace && r.ok(); ++i) {
    f.trace.push_back(r.str());
  }
  const std::uint64_t n_armed = r.count(24);
  for (std::uint64_t i = 0; i < n_armed && r.ok(); ++i) {
    sim::FaultModel::SavedState::ArmedEvent armed;
    armed.consumer = r.u64();
    armed.time = r.f64();
    armed.seq = r.u64();
    f.armed.push_back(armed);
  }
  return f;
}

core::GraphExecutor::SavedState get_graph(Reader& r) {
  core::GraphExecutor::SavedState g;
  const std::uint64_t n_nodes = r.count(21);
  for (std::uint64_t i = 0; i < n_nodes && r.ok(); ++i) {
    core::GraphExecutor::SavedState::Node node;
    node.status =
        static_cast<core::NodeStatus>(r.ordinal(5, "node status"));
    node.unit_uid = r.str();
    node.error = r.read_status();
    g.nodes.push_back(std::move(node));
  }
  const std::uint64_t n_groups = r.count(18);
  for (std::uint64_t i = 0; i < n_groups && r.ok(); ++i) {
    core::GraphExecutor::SavedState::Group group;
    group.settled = r.u64();
    group.done = r.u64();
    group.decided = r.boolean();
    group.passed = r.boolean();
    g.groups.push_back(group);
  }
  const std::uint64_t n_chain_sets = r.count(1);
  for (std::uint64_t i = 0; i < n_chain_sets && r.ok(); ++i) {
    g.chain_sets_decided.push_back(r.boolean());
  }
  const std::uint64_t n_stack = r.count(8);
  for (std::uint64_t i = 0; i < n_stack && r.ok(); ++i) {
    g.expander_stack.push_back(r.u64());
  }
  g.expanders_seen = r.u64();
  const std::uint64_t n_log = r.count(9);
  for (std::uint64_t i = 0; i < n_log && r.ok(); ++i) {
    const std::uint64_t index = r.u64();
    g.expander_log.emplace_back(index, r.boolean());
  }
  const std::uint64_t n_errors = r.count(20);
  for (std::uint64_t i = 0; i < n_errors && r.ok(); ++i) {
    const core::NodeId node = r.u64();
    g.errors.emplace_back(node, r.read_status());
  }
  g.inflight = r.u64();
  g.submitted_count = r.u64();
  g.aborted = r.boolean();
  g.abort_status = r.read_status();
  return g;
}

void put_payload(Writer& w, const Snapshot& snapshot) {
  w.str(snapshot.machine);
  w.u64(static_cast<std::uint64_t>(snapshot.cores));
  w.u64(static_cast<std::uint64_t>(snapshot.n_pilots));
  w.f64(snapshot.runtime);
  w.str(snapshot.scheduler_policy);
  w.str(snapshot.pattern_name);
  w.str(snapshot.session);
  w.str(snapshot.workload_text);
  w.f64(snapshot.engine_now);
  w.u64(snapshot.uid_counters.size());
  for (const auto& [prefix, counter] : snapshot.uid_counters) {
    w.str(prefix);
    w.u64(counter);
  }
  w.u64(snapshot.units.size());
  for (const auto& unit : snapshot.units) {
    w.str(unit.uid);
    put_description(w, *unit.description);
    put_unit_state(w, unit.state);
    w.boolean(unit.settled);
    w.boolean(unit.notified);
  }
  w.f64(snapshot.pattern_overhead);
  w.u64(snapshot.unit_manager.next_pilot);
  w.u64(snapshot.unit_manager.unrouted.size());
  for (const auto& uid : snapshot.unit_manager.unrouted) w.str(uid);
  w.u64(snapshot.unit_manager.total_units);
  w.u64(snapshot.unit_manager.total_retries);
  w.u64(snapshot.unit_manager.recovered_units);
  w.rng(snapshot.unit_manager.retry_rng);
  w.u64(snapshot.retries.size());
  for (const auto& retry : snapshot.retries) {
    w.str(retry.uid);
    w.f64(retry.time);
    w.u64(retry.seq);
  }
  w.u64(snapshot.pilots.size());
  for (const auto& pilot : snapshot.pilots) {
    w.str(pilot.uid);
    put_agent(w, pilot.agent);
  }
  w.boolean(snapshot.has_faults);
  if (snapshot.has_faults) put_faults(w, snapshot.faults);
  put_graph(w, snapshot.graph);
}

Result<Snapshot> decode_payload(std::string_view payload,
                                std::uint32_t version) {
  Reader r(payload);
  Snapshot snapshot;
  snapshot.machine = r.str();
  snapshot.cores = static_cast<Count>(r.u64());
  snapshot.n_pilots = static_cast<Count>(r.u64());
  snapshot.runtime = r.f64();
  snapshot.scheduler_policy = r.str();
  snapshot.pattern_name = r.str();
  if (version >= 2) snapshot.session = r.str();
  snapshot.workload_text = r.str();
  snapshot.engine_now = r.f64();
  const std::uint64_t n_counters = r.count(16);
  for (std::uint64_t i = 0; i < n_counters && r.ok(); ++i) {
    std::string prefix = r.str();
    const std::uint64_t counter = r.u64();
    snapshot.uid_counters.emplace_back(std::move(prefix), counter);
  }
  const std::uint64_t n_units = r.count(100);
  for (std::uint64_t i = 0; i < n_units && r.ok(); ++i) {
    UnitRecord unit;
    unit.uid = r.str();
    unit.description = std::make_shared<const pilot::UnitDescription>(
        get_description(r, version));
    unit.state = get_unit_state(r);
    unit.settled = r.boolean();
    unit.notified = r.boolean();
    snapshot.units.push_back(std::move(unit));
  }
  snapshot.pattern_overhead = r.f64();
  snapshot.unit_manager.next_pilot = r.u64();
  const std::uint64_t n_unrouted = r.count(8);
  for (std::uint64_t i = 0; i < n_unrouted && r.ok(); ++i) {
    snapshot.unit_manager.unrouted.push_back(r.str());
  }
  snapshot.unit_manager.total_units = r.u64();
  snapshot.unit_manager.total_retries = r.u64();
  snapshot.unit_manager.recovered_units = r.u64();
  snapshot.unit_manager.retry_rng = r.rng();
  const std::uint64_t n_retries = r.count(24);
  for (std::uint64_t i = 0; i < n_retries && r.ok(); ++i) {
    RetryRecord retry;
    retry.uid = r.str();
    retry.time = r.f64();
    retry.seq = r.u64();
    snapshot.retries.push_back(std::move(retry));
  }
  const std::uint64_t n_pilots = r.count(8);
  for (std::uint64_t i = 0; i < n_pilots && r.ok(); ++i) {
    PilotRecord pilot;
    pilot.uid = r.str();
    pilot.agent = get_agent(r);
    snapshot.pilots.push_back(std::move(pilot));
  }
  snapshot.has_faults = r.boolean();
  if (snapshot.has_faults) snapshot.faults = get_faults(r);
  snapshot.graph = get_graph(r);
  if (!r.ok()) return r.error();
  if (!r.exhausted()) {
    return make_error(Errc::kIoError,
                      "corrupt snapshot: trailing bytes after the "
                      "decoded payload");
  }
  return snapshot;
}

}  // namespace

std::string encode_snapshot(const Snapshot& snapshot) {
  Writer measure;
  put_payload(measure, snapshot);
  const std::size_t payload_size = measure.size();
  std::string out(kHeaderSize + payload_size, '\0');
  Writer w(out.data());
  w.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.u32(kFormatVersion);
  w.u64(payload_size);
  w.u64(0);  // checksum, filled in once the payload is in place
  put_payload(w, snapshot);
  ENTK_CHECK(w.size() == out.size(),
             "snapshot encoder wrote a different size than it measured");
  const std::uint64_t checksum =
      fnv1a(std::string_view(out).substr(kHeaderSize));
  std::memcpy(out.data() + kHeaderSize - sizeof(checksum), &checksum,
              sizeof(checksum));
  return out;
}

Result<Snapshot> decode_snapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return make_error(Errc::kIoError,
                      "corrupt snapshot: file shorter than the header (" +
                          std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return make_error(Errc::kIoError,
                      "not a checkpoint file: bad magic (expected "
                      "ENTKCKPT)");
  }
  Reader header(bytes.substr(sizeof(kSnapshotMagic), 4 + 8 + 8));
  const std::uint32_t version = header.u32();
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    return make_error(Errc::kIoError,
                      "unsupported checkpoint format version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kMinFormatVersion) + ".." +
                          std::to_string(kFormatVersion) + ")");
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (payload.size() != payload_size) {
    return make_error(Errc::kIoError,
                      "corrupt snapshot: header promises " +
                          std::to_string(payload_size) +
                          " payload bytes, file carries " +
                          std::to_string(payload.size()));
  }
  if (fnv1a(payload) != checksum) {
    return make_error(Errc::kIoError,
                      "corrupt snapshot: payload checksum mismatch "
                      "(bit rot or torn write)");
  }
  return decode_payload(payload, version);
}

Status write_snapshot_file(const std::string& path,
                           const Snapshot& snapshot) {
  return write_file_atomic(path, encode_snapshot(snapshot));
}

Result<Snapshot> read_snapshot_file(const std::string& path) {
  // One read into a buffer sized from the open file: a snapshot can be
  // tens of MB, and this is the only copy of it.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::error_code ec;
  if (!in || !std::filesystem::is_regular_file(path, ec)) {
    return make_error(Errc::kIoError,
                      "cannot open checkpoint file " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) {
    return make_error(Errc::kIoError,
                      "cannot read checkpoint file " + path);
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), size);
  if (in.bad()) {
    return make_error(Errc::kIoError,
                      "cannot read checkpoint file " + path);
  }
  // A file that shrank underneath reads short; the decoder diagnoses it.
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  auto decoded = decode_snapshot(bytes);
  if (!decoded.ok()) {
    return make_error(decoded.status().code(),
                      path + ": " + decoded.status().message());
  }
  return decoded;
}

}  // namespace entk::ckpt
