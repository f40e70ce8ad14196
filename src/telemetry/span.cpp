#include "telemetry/span.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/narrow.hpp"

namespace pran::telemetry {

namespace {

/// Thread-local lane cache. Keyed by a process-unique collector id (never
/// reused), so a stale entry for a destroyed collector can never alias a
/// new one. One entry per (thread, collector) pair — bounded in practice.
struct LaneRef {
  std::uint64_t collector_id;
  unsigned lane;
};

// pran-lint: allow(determinism-hazard) -- pure memo of (collector id ->
// lane slot); a stale entry is detected by id mismatch and rebuilt, so
// cache state never changes what gets recorded.
thread_local std::vector<LaneRef> t_lane_cache;

std::uint64_t next_collector_id() {
  // pran-lint: allow(determinism-hazard) -- collector identity tag used
  // only to invalidate the lane cache above; ids never appear in exported
  // traces or snapshots.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Chrome trace timestamps are microseconds; keep three decimals of ns.
std::string us_from_ns(std::int64_t ns) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::fixed << std::setprecision(3)
     << static_cast<double>(ns) / 1e3;
  return os.str();
}

}  // namespace

SpanCollector::SpanCollector()
    : collector_id_(next_collector_id()), epoch_ns_(wall_now_ns()) {
  lanes_.resize(kMaxLanes);
  for (auto& lane : lanes_) lane.ring.reserve(kRingCapacity);
}

SpanCollector::~SpanCollector() = default;

std::uint32_t SpanCollector::intern(std::string_view name) {
  PRAN_REQUIRE(!name.empty(), "span name must be non-empty");
  std::lock_guard<std::mutex> lock(names_mutex_);
  const auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = narrow_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

const std::string& SpanCollector::name(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(names_mutex_);
  PRAN_REQUIRE(id < names_.size(), "unknown span name id");
  return names_[id];
}

SpanCollector::Lane* SpanCollector::lane() noexcept {
  for (const LaneRef& ref : t_lane_cache)
    if (ref.collector_id == collector_id_) {
      if (ref.lane >= kMaxLanes) return nullptr;  // overflow thread
      return &lanes_[ref.lane];
    }
  const unsigned claimed = lanes_used_.fetch_add(1, std::memory_order_relaxed);
  t_lane_cache.push_back(LaneRef{collector_id_, claimed});
  if (claimed >= kMaxLanes) return nullptr;
  return &lanes_[claimed];
}

void SpanCollector::push(Lane* lane, const SpanRecord& record) noexcept {
  if (lane == nullptr) {
    overflow_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (lane->ring.size() < kRingCapacity) {
    lane->ring.push_back(record);  // capacity reserved: no allocation
  } else {
    lane->ring[lane->count % kRingCapacity] = record;
  }
  ++lane->count;
}

void* SpanCollector::begin_span() noexcept { return lane(); }

void SpanCollector::end_span(void* lane, std::uint32_t name_id,
                             std::int64_t start_ns, std::int64_t end_ns,
                             std::int64_t arg0) noexcept {
  SpanRecord r;
  r.name_id = name_id;
  r.start_ns = start_ns - epoch_ns_;
  r.duration_ns = end_ns - start_ns;
  r.arg0 = arg0;
  push(static_cast<Lane*>(lane), r);
}

std::vector<SpanRecord> SpanCollector::records() const {
  std::vector<SpanRecord> out;
  for (const Lane& lane : lanes_) {
    const std::size_t kept =
        std::min<std::uint64_t>(lane.count, kRingCapacity);
    if (kept == 0) continue;
    // Oldest-first: the ring's logical start is count % capacity once full.
    const std::size_t start =
        lane.count <= kRingCapacity
            ? 0
            : static_cast<std::size_t>(lane.count % kRingCapacity);
    for (std::size_t i = 0; i < kept; ++i)
      out.push_back(lane.ring[(start + i) % kRingCapacity]);
  }
  return out;
}

std::uint64_t SpanCollector::recorded() const {
  std::uint64_t total = overflow_dropped_.load(std::memory_order_relaxed);
  for (const Lane& lane : lanes_) total += lane.count;
  return total;
}

std::uint64_t SpanCollector::dropped() const {
  std::uint64_t dropped = overflow_dropped_.load(std::memory_order_relaxed);
  for (const Lane& lane : lanes_)
    if (lane.count > kRingCapacity)
      dropped += lane.count - kRingCapacity;
  return dropped;
}

void SpanCollector::clear() {
  for (Lane& lane : lanes_) {
    lane.ring.clear();
    lane.count = 0;
  }
  overflow_dropped_.store(0, std::memory_order_relaxed);
}

unsigned SpanCollector::lanes_in_use() const {
  return std::min(lanes_used_.load(std::memory_order_relaxed), kMaxLanes);
}

std::string SpanCollector::to_chrome_trace() const {
  // Copy names once so we do not take the mutex per record.
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(names_mutex_);
    names = names_;
  }
  constexpr int kWallPid = 1;
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kWallPid
     << ",\"args\":{\"name\":\"wall-clock\"}}";
  for (unsigned t = 0; t < lanes_in_use(); ++t)
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kWallPid
       << ",\"tid\":" << t << ",\"args\":{\"name\":\"thread-" << t << "\"}}";

  unsigned lane_index = 0;
  for (const Lane& lane : lanes_) {
    const std::size_t kept =
        std::min<std::uint64_t>(lane.count, kRingCapacity);
    const std::size_t start =
        lane.count <= kRingCapacity
            ? 0
            : static_cast<std::size_t>(lane.count % kRingCapacity);
    for (std::size_t i = 0; i < kept; ++i) {
      const SpanRecord& r = lane.ring[(start + i) % kRingCapacity];
      const std::string& name =
          r.name_id < names.size() ? names[r.name_id] : names.emplace_back("?");
      os << ",\n{\"name\":\"" << json::escape(name)
         << "\",\"ph\":\"X\",\"dur\":" << us_from_ns(r.duration_ns)
         << ",\"pid\":" << kWallPid << ",\"tid\":" << lane_index
         << ",\"ts\":" << us_from_ns(r.start_ns);
      if (r.arg0 != kNoArg) os << ",\"args\":{\"arg0\":" << r.arg0 << "}";
      os << "}";
    }
    ++lane_index;
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace pran::telemetry
