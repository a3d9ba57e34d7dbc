#include "obs/metrics.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_map>

#include "obs/json.hpp"
#include "util/contracts.hpp"

namespace tcsa::obs {
namespace {

std::atomic<bool> g_enabled{false};

// Fixed capacities let every shard lay out its cells once, so recording
// never allocates, never resizes, and never races a registration. The caps
// are far above the library's instrumentation set; exceeding one is a
// programming error caught at registration.
constexpr std::size_t kMaxMetrics = 256;
constexpr std::size_t kMaxGauges = 128;
constexpr std::size_t kMaxHistograms = 64;
constexpr std::size_t kBuckets = LogHistogram::kBuckets;
// A shard marks which 64-bucket blocks of a histogram it has written, so a
// scrape reads those blocks only.
constexpr std::size_t kBlockBuckets = 64;
static_assert(kBuckets % kBlockBuckets == 0);
constexpr std::size_t kMaskWords = (kBuckets / kBlockBuckets + 63) / 64;
constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
constexpr std::array kCapacity{kMaxMetrics, kMaxGauges, kMaxHistograms};

/// Immutable once registered; published to recorders via the happens-before
/// edge of the registering call returning the MetricId.
struct Def {
  Kind kind = Kind::kCounter;
  std::string name;
  std::string help;
  std::string labels;      ///< gauge-only fixed label pairs, no braces
  std::uint32_t slot = 0;  ///< index among the metrics of its kind
};

/// Registry key: labeled gauges are distinct series, so the identity is the
/// full `name{labels}` spelling; unlabeled metrics keep the bare name.
std::string series_key(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + '{' + labels + '}';
}

/// One histogram's shard state beside its bucket cells.
struct HistCells {
  std::atomic<double> sum{0.0};
  std::atomic<double> min{kInf};
  std::atomic<double> max{-kInf};
  std::array<std::atomic<std::uint64_t>, kMaskWords> written{};  ///< blocks
};

/// Owner-only update: a shard has one writer, so no read-modify-write.
template <typename Cell, typename T>
void bump(Cell&& cell, T n,
          std::memory_order order = std::memory_order_relaxed) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + n, order);
}

/// One thread's value cells, written only by the thread holding the shard
/// and read by scrapes through the same atomics. An exited thread's shard
/// goes to the next thread that records: its sums keep counting.
class Shard {
 public:
  /// The bucket cells are one anonymous mapping: pages no sample touches
  /// are never made resident.
  Shard()
      : cells_(static_cast<std::uint64_t*>(
            ::mmap(nullptr, kCellBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))) {
    if (cells_ == MAP_FAILED) throw std::bad_alloc();
  }
  ~Shard() { ::munmap(cells_, kCellBytes); }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void observe(std::uint32_t slot, double value) noexcept {
    const std::size_t bucket = LogHistogram::bucket_index(value);
    HistCells& hist = hists[slot];
    // Sum and extremes first, the count (release) after: a scrape that
    // reads the count also reads extremes that cover it.
    bump(hist.sum, value);
    if (value < hist.min.load(std::memory_order_relaxed))
      hist.min.store(value, std::memory_order_relaxed);
    if (value > hist.max.load(std::memory_order_relaxed))
      hist.max.store(value, std::memory_order_relaxed);
    bump(std::atomic_ref(cells_[slot * kBuckets + bucket]), std::uint64_t{1},
         std::memory_order_release);
    const std::size_t block = bucket / kBlockBuckets;
    const std::uint64_t bit = std::uint64_t{1} << (block % 64);
    if ((hist.written[block / 64].load(std::memory_order_relaxed) & bit) == 0)
      bump(hist.written[block / 64], bit, std::memory_order_release);
  }

  /// Adds this shard's samples of histogram `slot` to `values` and `sum`,
  /// reading only the written blocks. `scratch` is reused between calls.
  void read(std::uint32_t slot, LogHistogram& values, double& sum,
            std::vector<LogHistogram::Bucket>& scratch) const {
    const HistCells& hist = hists[slot];
    scratch.clear();
    for (std::size_t w = 0; w < kMaskWords; ++w) {
      for (std::uint64_t blocks = hist.written[w].load(std::memory_order_acquire);
           blocks != 0; blocks &= blocks - 1) {
        const std::size_t first =
            (w * 64 + static_cast<std::size_t>(std::countr_zero(blocks))) *
            kBlockBuckets;
        for (std::size_t b = first; b < first + kBlockBuckets; ++b) {
          const std::uint64_t n = std::atomic_ref(cells_[slot * kBuckets + b])
                                      .load(std::memory_order_acquire);
          if (n != 0) scratch.push_back({b, n});
        }
      }
    }
    values.merge_buckets(scratch, hist.min.load(std::memory_order_relaxed),
                         hist.max.load(std::memory_order_relaxed));
    sum += hist.sum.load(std::memory_order_relaxed);
  }

  /// Zeroes every value; the bucket pages go back to the kernel.
  void clear() noexcept {
    for (auto& cell : counters) cell.store(0, std::memory_order_relaxed);
    for (HistCells& hist : hists) {
      hist.sum.store(0.0, std::memory_order_relaxed);
      hist.min.store(kInf, std::memory_order_relaxed);
      hist.max.store(-kInf, std::memory_order_relaxed);
      for (auto& word : hist.written) word.store(0, std::memory_order_relaxed);
    }
    ::madvise(cells_, kCellBytes, MADV_DONTNEED);
  }

 private:
  static constexpr std::size_t kCellBytes =
      kMaxHistograms * kBuckets * sizeof(std::uint64_t);

  std::uint64_t* cells_;  ///< kMaxHistograms x kBuckets, mapped

 public:
  std::array<std::atomic<std::uint64_t>, kMaxMetrics> counters{};
  std::array<HistCells, kMaxHistograms> hists;
};

class Registry {
 public:
  static Registry& instance() {
    // Intentionally leaked: thread_local shard handles retire themselves on
    // thread exit, which may run after function-local statics are destroyed;
    // a never-destroyed registry keeps that path safe.
    static Registry* registry = new Registry;
    return *registry;
  }

  MetricId register_metric(Kind kind, const std::string& name,
                           const std::string& help,
                           const std::string& labels = {}) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::string key = series_key(name, labels);
    if (const auto it = by_name_.find(key); it != by_name_.end()) {
      TCSA_REQUIRE(defs_[it->second].kind == kind,
                   "metrics: name re-registered with a different kind");
      return it->second;
    }
    TCSA_REQUIRE(defs_.size() < kMaxMetrics, "metrics: registry full");
    TCSA_REQUIRE(labels.empty() || kind == Kind::kGauge,
                 "metrics: labels are gauge-only");
    std::uint32_t& next = next_slot_[static_cast<std::size_t>(kind)];
    TCSA_REQUIRE(next < kCapacity[static_cast<std::size_t>(kind)],
                 "metrics: out of slots");
    const auto id = static_cast<MetricId>(defs_.size());
    defs_.push_back({kind, name, help, labels, next++});
    by_name_.emplace(key, id);
    return id;
  }

  // -- hot path -----------------------------------------------------------

  /// Kind-local slot of a registered id. defs_ never reallocates, so
  /// recorders may read it while a registration appends.
  std::uint32_t slot(MetricId id) const noexcept { return defs_[id].slot; }

  std::atomic<double>& gauge_cell(MetricId id) { return gauges_[slot(id)]; }

  /// The calling thread's shard, taken on first use. The thread_local
  /// handle gives it back when the thread exits, for the next thread to
  /// take, so short-lived pool workers do not leak shards.
  static Shard& local_shard() {
    thread_local Shard* shard = nullptr;
    if (shard == nullptr) [[unlikely]] {
      struct Handle {
        Shard* shard = nullptr;
        ~Handle() { Registry::instance().release(shard); }
      };
      thread_local Handle handle{instance().take_shard()};
      shard = handle.shard;
    }
    return *shard;
  }

  // -- scrape / lifecycle -------------------------------------------------

  MetricsSnapshot scrape() {
    const std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const Def& def : defs_) {
      switch (def.kind) {
        case Kind::kCounter: {
          std::uint64_t total = 0;
          for (const auto& shard : shards_)
            total += shard->counters[def.slot].load(std::memory_order_relaxed);
          snap.counters.push_back({def.name, def.help, total});
          break;
        }
        case Kind::kGauge:
          snap.gauges.push_back(
              {def.name, def.help, def.labels,
               gauges_[def.slot].load(std::memory_order_relaxed)});
          break;
        case Kind::kHistogram: {
          HistogramSnapshot& hist = snap.histograms.emplace_back();
          hist.name = def.name;
          hist.help = def.help;
          for (const auto& shard : shards_)
            shard->read(def.slot, hist.values, hist.sum, scratch_);
          break;
        }
      }
    }
    return snap;
  }

  LogHistogram histogram(MetricId id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    LogHistogram values;
    double sum = 0.0;
    for (const auto& shard : shards_)
      shard->read(slot(id), values, sum, scratch_);
    return values;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& shard : shards_) shard->clear();
    for (auto& cell : gauges_) cell.store(0.0, std::memory_order_relaxed);
  }

 private:
  Registry() { defs_.reserve(kMaxMetrics); }

  Shard* take_shard() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (idle_.empty())
      idle_.push_back(shards_.emplace_back(std::make_unique<Shard>()).get());
    Shard* shard = idle_.back();
    idle_.pop_back();
    return shard;
  }

  void release(Shard* shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(shard);
  }

  mutable std::mutex mutex_;
  std::vector<Def> defs_;  ///< reserved to kMaxMetrics: never reallocates
  std::array<std::uint32_t, 3> next_slot_{};  ///< per Kind
  std::unordered_map<std::string, MetricId> by_name_;
  std::array<std::atomic<double>, kMaxGauges> gauges_{};
  std::vector<std::unique_ptr<Shard>> shards_;  ///< every shard ever made
  std::vector<Shard*> idle_;  ///< shards of exited threads, taken first
  std::vector<LogHistogram::Bucket> scratch_;  ///< Shard::read's buffer
};

/// The element of `items` named `name`, or end().
template <typename Items>
auto find_named(Items& items, const std::string& name) {
  return std::find_if(items.begin(), items.end(),
                      [&](const auto& item) { return item.name == name; });
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

MetricId register_counter(const std::string& name, const std::string& help) {
  return Registry::instance().register_metric(Kind::kCounter, name, help);
}

MetricId register_gauge(const std::string& name, const std::string& help) {
  return Registry::instance().register_metric(Kind::kGauge, name, help);
}

MetricId register_gauge(const std::string& name, const std::string& help,
                        const std::string& labels) {
  return Registry::instance().register_metric(Kind::kGauge, name, help,
                                              labels);
}

std::string format_label(const std::string& key, const std::string& value) {
  std::string out = key + "=\"";
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

MetricId register_histogram(const std::string& name, const std::string& help) {
  return Registry::instance().register_metric(Kind::kHistogram, name, help);
}

void counter_add(MetricId id, std::uint64_t n) noexcept {
  if (!enabled()) return;
  counter_add_always(id, n);
}

void counter_add_always(MetricId id, std::uint64_t n) noexcept {
  bump(Registry::local_shard().counters[Registry::instance().slot(id)], n);
}

void gauge_set(MetricId id, double value) noexcept {
  if (!enabled()) return;
  gauge_set_always(id, value);
}

void gauge_set_always(MetricId id, double value) noexcept {
  Registry::instance().gauge_cell(id).store(value, std::memory_order_relaxed);
}

void histogram_observe(MetricId id, double value) noexcept {
  if (!enabled() || std::isnan(value)) return;
  Registry::local_shard().observe(Registry::instance().slot(id), value);
}

LogHistogram histogram_values(MetricId id) {
  return Registry::instance().histogram(id);
}

MetricsSnapshot MetricsSnapshot::minus(const MetricsSnapshot& base) const {
  MetricsSnapshot delta = *this;
  for (CounterSnapshot& mine : delta.counters) {
    const auto it = find_named(base.counters, mine.name);
    if (it != base.counters.end()) mine.value -= it->value;
  }
  for (HistogramSnapshot& mine : delta.histograms) {
    const auto it = find_named(base.histograms, mine.name);
    if (it == base.histograms.end()) continue;
    mine.values.subtract(it->values);
    mine.sum -= it->sum;
  }
  return delta;
}

std::uint64_t MetricsSnapshot::counter_value(
    const std::string& name) const noexcept {
  const auto it = find_named(counters, name);
  return it != counters.end() ? it->value : 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const noexcept {
  const auto it = find_named(histograms, name);
  return it != histograms.end() ? &*it : nullptr;
}

const GaugeSnapshot* MetricsSnapshot::gauge(
    const std::string& name) const noexcept {
  const auto it = find_named(gauges, name);
  return it != gauges.end() ? &*it : nullptr;
}

double MetricsSnapshot::gauge_value(const std::string& name) const noexcept {
  const GaugeSnapshot* g = gauge(name);
  return g != nullptr ? g->value : 0.0;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  bool first = true;
  const auto section = [&](const char* head) {
    out += head;
    first = true;
  };
  const auto member = [&](const std::string& key, const std::string& value) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    out += json_escape(key) + "\": " + value;
  };
  section("{\n  \"counters\": {");
  for (const CounterSnapshot& c : counters)
    member(c.name, std::to_string(c.value));
  section("\n  },\n  \"gauges\": {");
  for (const GaugeSnapshot& g : gauges)
    member(series_key(g.name, g.labels), json_number(g.value));
  section("\n  },\n  \"histograms\": {");
  for (const HistogramSnapshot& h : histograms) {
    std::string body = "{\"count\": " + std::to_string(h.values.count()) +
                       ", \"sum\": " + json_number(h.sum) +
                       ", \"min\": " + json_number(h.values.min()) +
                       ", \"max\": " + json_number(h.values.max()) +
                       ", \"buckets\": [";
    for (const LogHistogram::Bucket& bucket : h.values.buckets())
      body += (body.back() == '[' ? "[" : ", [") +
              std::to_string(bucket.index) + ", " +
              std::to_string(bucket.count) + ']';
    member(h.name, body + "]}");
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  const auto header = [&](const std::string& name, const std::string& help,
                          const char* type) {
    out += "# HELP " + name + ' ' + help + '\n';
    out += "# TYPE " + name + ' ' + type + '\n';
  };
  for (const CounterSnapshot& c : counters) {
    header(c.name, c.help, "counter");
    out += c.name + ' ' + std::to_string(c.value) + '\n';
  }
  const std::string* last_gauge_name = nullptr;
  for (const GaugeSnapshot& g : gauges) {
    // HELP/TYPE use the bare name and are emitted once per name even when
    // several labeled series share it (scrape order keeps same-name gauges
    // adjacent because registration order does).
    if (last_gauge_name == nullptr || *last_gauge_name != g.name)
      header(g.name, g.help, "gauge");
    last_gauge_name = &g.name;
    out += series_key(g.name, g.labels) + ' ' + json_number(g.value) + '\n';
  }
  for (const HistogramSnapshot& h : histograms) {
    header(h.name, h.help, "histogram");
    const std::uint64_t total = h.values.count();
    const std::vector<LogHistogram::Bucket>& buckets = h.values.buckets();
    auto next = buckets.begin();
    std::uint64_t cumulative = 0;  // Prometheus buckets are cumulative
    // Octave edges ascending, -2^47 .. -2, -1, then 0, 1, 3, 7 .. 2^48 - 1:
    // each ends a LogHistogram bucket, so its cumulative count is exact.
    for (int i = 0; i < 97 && cumulative < total; ++i) {
      const std::int64_t edge = i < 48 ? -(std::int64_t{1} << (47 - i))
                                       : (std::int64_t{1} << (i - 48)) - 1;
      const std::size_t last =
          LogHistogram::bucket_index(static_cast<double>(edge));
      for (; next != buckets.end() && next->index <= last; ++next)
        cumulative += next->count;
      if (cumulative > 0)
        out += h.name + "_bucket{le=\"" + std::to_string(edge) + "\"} " +
               std::to_string(cumulative) + '\n';
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(total) + '\n';
    out += h.name + "_sum " + json_number(h.sum) + '\n';
    out += h.name + "_count " + std::to_string(total) + '\n';
  }
  return out;
}

MetricsSnapshot snapshot() { return Registry::instance().scrape(); }

void reset_metrics() { Registry::instance().reset(); }

}  // namespace tcsa::obs
