#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>

#include "obs/json.hpp"

namespace optrt::obs {

namespace {

std::atomic<std::uint64_t> g_next_registry_id{1};
std::atomic<MetricsRegistry*> g_global_override{nullptr};

// Per-thread shard pointers, keyed by registry id (ids are never reused,
// so a stale entry for a destroyed registry can never be looked up again).
struct ThreadShardCache {
  std::uint64_t last_id = 0;
  MetricsRegistry::Shard* last = nullptr;
  std::unordered_map<std::uint64_t, MetricsRegistry::Shard*> by_id;
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

// Owner thread is the only writer and the only grower; growth and
// cross-thread reads (snapshot/reset) serialize on the registry mutex.
// std::deque never moves existing elements, so the owner's lock-free
// relaxed stores to established slots stay valid during growth.
struct MetricsRegistry::Shard {
  std::deque<std::atomic<std::uint64_t>> slots;
};

namespace {
ThreadShardCache& thread_cache() {
  thread_local ThreadShardCache cache;
  return cache;
}

MetricsRegistry::Shard* thread_cache_lookup(std::uint64_t id) {
  ThreadShardCache& cache = thread_cache();
  if (cache.last_id == id) return cache.last;
  const auto it = cache.by_id.find(id);
  if (it == cache.by_id.end()) return nullptr;
  cache.last_id = id;
  cache.last = it->second;
  return it->second;
}

void thread_cache_store(std::uint64_t id, MetricsRegistry::Shard* shard) {
  ThreadShardCache& cache = thread_cache();
  cache.by_id[id] = shard;
  cache.last_id = id;
  cache.last = shard;
}
}  // namespace

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

detail::MetricInfo* MetricsRegistry::register_metric(
    std::string_view name, MetricKind kind, std::uint32_t slots,
    std::vector<std::uint64_t> bounds) {
  if (name.empty()) {
    throw std::logic_error("MetricsRegistry: empty metric name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    detail::MetricInfo* info = it->second;
    if (info->kind != kind) {
      throw std::logic_error("MetricsRegistry: metric '" + std::string(name) +
                             "' re-registered with a different kind");
    }
    if (kind == MetricKind::kHistogram && info->bounds != bounds) {
      throw std::logic_error("MetricsRegistry: histogram '" +
                             std::string(name) +
                             "' re-registered with different bounds");
    }
    return info;
  }
  auto info = std::make_unique<detail::MetricInfo>();
  info->name = std::string(name);
  info->kind = kind;
  info->slot = next_slot_;
  info->slots = slots;
  info->bounds = std::move(bounds);
  next_slot_ += slots;
  detail::MetricInfo* raw = info.get();
  metrics_.push_back(std::move(info));
  by_name_.emplace(std::string_view(raw->name), raw);
  return raw;
}

const detail::MetricInfo* MetricsRegistry::find_metric(
    std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(this, register_metric(name, MetricKind::kCounter, 1, {}));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  // Slot 0: bit-cast value; slot 1: ever-set flag.
  return Gauge(this, register_metric(name, MetricKind::kGauge, 2, {}));
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<std::uint64_t> bounds) {
  if (!std::is_sorted(bounds.begin(), bounds.end()) ||
      std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
    throw std::logic_error("MetricsRegistry: histogram bounds for '" +
                           std::string(name) +
                           "' must be strictly increasing");
  }
  // Slot 0: sum of observations; slots 1..B+1: buckets (last = overflow).
  const auto slots = static_cast<std::uint32_t>(bounds.size() + 2);
  return Histogram(this, register_metric(name, MetricKind::kHistogram, slots,
                                         std::move(bounds)));
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() const {
  if (Shard* cached = thread_cache_lookup(id_); cached != nullptr) {
    return *cached;
  }
  auto owned = std::make_unique<Shard>();
  Shard* shard = owned.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(owned));
  }
  thread_cache_store(id_, shard);
  return *shard;
}

std::atomic<std::uint64_t>& MetricsRegistry::slot(Shard& shard,
                                                  std::uint32_t index) const {
  // Only the owner thread reads/extends its shard's size, so the unlocked
  // size check races with nobody; growth itself locks out mergers. A
  // shard grows only as far as the slot written, so a thread that writes
  // one counter never pays for histograms registered after it.
  if (index >= shard.slots.size()) {
    std::lock_guard<std::mutex> lock(mu_);
    while (shard.slots.size() <= index) shard.slots.emplace_back();
  }
  return shard.slots[index];
}

void Counter::inc(std::uint64_t delta) const {
  if (reg_ == nullptr) return;
  auto& shard = reg_->local_shard();
  reg_->slot(shard, info_->slot).fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::set(std::int64_t v) const {
  if (reg_ == nullptr) return;
  auto& shard = reg_->local_shard();
  reg_->slot(shard, info_->slot)
      .store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  reg_->slot(shard, info_->slot + 1).store(1, std::memory_order_relaxed);
}

void Histogram::observe(std::uint64_t v) const {
  if (reg_ == nullptr) return;
  auto& shard = reg_->local_shard();
  reg_->slot(shard, info_->slot).fetch_add(v, std::memory_order_relaxed);
  const auto& bounds = info_->bounds;
  const auto bucket = static_cast<std::uint32_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  reg_->slot(shard, info_->slot + 1 + bucket)
      .fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::sum_slot_locked(std::uint32_t index) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (index < shard->slots.size()) {
      total += shard->slots[index].load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const detail::MetricInfo* info = find_metric(name);
  if (info == nullptr || info->kind != MetricKind::kCounter) return 0;
  return sum_slot_locked(info->slot);
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const detail::MetricInfo* info = find_metric(name);
  if (info == nullptr || info->kind != MetricKind::kGauge) return 0;
  std::int64_t merged = 0;
  bool any = false;
  for (const auto& shard : shards_) {
    if (info->slot + 1 >= shard->slots.size()) continue;
    if (shard->slots[info->slot + 1].load(std::memory_order_relaxed) == 0) {
      continue;
    }
    const auto v = std::bit_cast<std::int64_t>(
        shard->slots[info->slot].load(std::memory_order_relaxed));
    merged = any ? std::max(merged, v) : v;
    any = true;
  }
  return merged;
}

HistogramSnapshot MetricsRegistry::histogram_value(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot snap;
  const detail::MetricInfo* info = find_metric(name);
  if (info == nullptr || info->kind != MetricKind::kHistogram) return snap;
  snap.bounds = info->bounds;
  snap.sum = sum_slot_locked(info->slot);
  snap.counts.resize(info->bounds.size() + 1);
  for (std::size_t i = 0; i < snap.counts.size(); ++i) {
    snap.counts[i] = sum_slot_locked(info->slot + 1 + static_cast<std::uint32_t>(i));
  }
  return snap;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const detail::MetricInfo*> sorted;
  sorted.reserve(metrics_.size());
  for (const auto& info : metrics_) sorted.push_back(info.get());
  std::sort(sorted.begin(), sorted.end(),
            [](const detail::MetricInfo* a, const detail::MetricInfo* b) {
              return a->name < b->name;
            });
  MetricsSnapshot snap;
  for (const detail::MetricInfo* info : sorted) {
    switch (info->kind) {
      case MetricKind::kCounter:
        snap.counters.emplace_back(info->name, sum_slot_locked(info->slot));
        break;
      case MetricKind::kGauge: {
        std::int64_t merged = 0;
        bool any = false;
        for (const auto& shard : shards_) {
          if (info->slot + 1 >= shard->slots.size()) continue;
          if (shard->slots[info->slot + 1].load(std::memory_order_relaxed) ==
              0) {
            continue;
          }
          const auto v = std::bit_cast<std::int64_t>(
              shard->slots[info->slot].load(std::memory_order_relaxed));
          merged = any ? std::max(merged, v) : v;
          any = true;
        }
        snap.gauges.emplace_back(info->name, merged);
        break;
      }
      case MetricKind::kHistogram: {
        HistogramSnapshot h;
        h.bounds = info->bounds;
        h.sum = sum_slot_locked(info->slot);
        h.counts.resize(info->bounds.size() + 1);
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          h.counts[i] =
              sum_slot_locked(info->slot + 1 + static_cast<std::uint32_t>(i));
        }
        snap.histograms.emplace_back(info->name, std::move(h));
        break;
      }
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (auto& slot : shard->slots) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry default_registry;
  MetricsRegistry* override = g_global_override.load(std::memory_order_acquire);
  return override != nullptr ? *override : default_registry;
}

ScopedRegistry::ScopedRegistry()
    : registry_(std::make_unique<MetricsRegistry>()),
      previous_(g_global_override.load(std::memory_order_acquire)) {
  g_global_override.store(registry_.get(), std::memory_order_release);
}

ScopedRegistry::~ScopedRegistry() {
  g_global_override.store(previous_, std::memory_order_release);
}

Counter counter(std::string_view name) {
  return MetricsRegistry::global().counter(name);
}

Gauge gauge(std::string_view name) {
  return MetricsRegistry::global().gauge(name);
}

Histogram histogram(std::string_view name, std::vector<std::uint64_t> bounds) {
  return MetricsRegistry::global().histogram(name, std::move(bounds));
}

std::vector<std::uint64_t> hop_buckets() {
  return {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256, 1024, 65536};
}

std::string metrics_json(const MetricsSnapshot& snap, std::int64_t wall_ns) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("optrt.metrics.v1");
  w.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) w.key(name).value(value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) w.key(name).value(value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const std::uint64_t b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (const std::uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.key("sum").value(h.sum);
    w.key("count").value(h.count());
    w.end_object();
  }
  w.end_object();
  if (wall_ns >= 0) w.key("wall_ns").value(wall_ns);
  w.end_object();
  return w.str();
}

std::string metrics_json(const MetricsRegistry& reg, std::int64_t wall_ns) {
  return metrics_json(reg.snapshot(), wall_ns);
}

std::uint64_t metrics_fingerprint(const MetricsRegistry& reg) {
  const std::string doc = metrics_json(reg, -1);
  std::uint64_t h = kFnvOffset;
  for (const char c : doc) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace optrt::obs
