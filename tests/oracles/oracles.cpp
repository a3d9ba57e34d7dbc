#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>

#include "core/channel_bound.hpp"
#include "core/delay_model.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace tcsa {
namespace {

/// Groups ordered by descending frequency (Algorithm 4's sort). Stable on
/// ties so equal-frequency groups keep ascending-deadline order.
std::vector<GroupId> descending_frequency_order(const Workload& workload,
                                                std::span<const SlotCount> S) {
  std::vector<GroupId> order(static_cast<std::size_t>(workload.group_count()));
  std::iota(order.begin(), order.end(), GroupId{0});
  std::stable_sort(order.begin(), order.end(), [&](GroupId a, GroupId b) {
    return S[static_cast<std::size_t>(a)] > S[static_cast<std::size_t>(b)];
  });
  return order;
}

/// Reference column scan of the seed implementation: first empty slot at
/// column >= `from`, cyclically, channels inner. Kept verbatim as the oracle
/// the tracker is tested against.
SlotCount reference_place_from(BroadcastProgram& program, PageId page,
                               SlotCount from) {
  const SlotCount cycle = program.cycle_length();
  for (SlotCount step = 0; step < cycle; ++step) {
    const SlotCount column = (from + step) % cycle;
    for (SlotCount channel = 0; channel < program.channels(); ++channel) {
      if (program.empty_at(channel, column)) {
        program.place(channel, column, page);
        return column;
      }
    }
  }
  TCSA_ASSERT(false, "place_from: program is full (capacity bug)");
  return -1;
}

/// Algorithm 2 (GetAvailableSlot): first empty slot scanning channels in
/// order, columns [0, t) within each channel. Returns nullopt when every
/// candidate slot is taken — which Theorem 3.2 rules out under sufficient
/// channels, so callers treat nullopt as an internal error.
std::optional<std::pair<SlotCount, SlotCount>> get_available_slot(
    const BroadcastProgram& program, SlotCount t) {
  for (SlotCount channel = 0; channel < program.channels(); ++channel) {
    for (SlotCount slot = 0; slot < t; ++slot) {
      if (program.empty_at(channel, slot)) return {{channel, slot}};
    }
  }
  return std::nullopt;
}

/// Next completion of `page` strictly after cycle position `from`, as a
/// wait in slots (integral: appearances live on integer completion times).
SlotCount integral_wait_after(const AppearanceIndex& index, PageId page,
                              SlotCount from) {
  return static_cast<SlotCount>(
      std::llround(index.wait_after(page, static_cast<double>(from))));
}

}  // namespace

BroadcastProgram schedule_susc_reference(const Workload& workload,
                                         SlotCount channels) {
  TCSA_REQUIRE(channels >= min_channels(workload),
               "schedule_susc: channels below the Theorem 3.1 minimum — "
               "use PAMAD for the insufficient-channel case");
  const SlotCount cycle = workload.max_expected_time();
  BroadcastProgram program(channels, cycle);

  // Groups are stored in ascending expected-time order already (Workload
  // invariant), which is exactly Algorithm 1's sort.
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    const SlotCount t = workload.expected_time(g);
    const SlotCount replications = cycle / t;  // ceil(t_h / t_i) == exact
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      const auto found = get_available_slot(program, t);
      TCSA_ASSERT(found.has_value(),
                  "schedule_susc: no slot in the first t_i columns — "
                  "Theorem 3.2 violated (bug)");
      const auto [x, y] = *found;
      // Theorem 3.3: the arithmetic progression (x, y + k*t) is free; place()
      // asserts emptiness, so a violation surfaces immediately.
      for (SlotCount k = 0; k < replications; ++k)
        program.place(x, y + k * t, page);
    }
  }
  return program;
}

ValidityReport validate_program_reference(const BroadcastProgram& program,
                                          const Workload& workload) {
  ValidityReport report;
  const AppearanceIndex index(program, workload.total_pages());

  for (PageId page = 0; page < workload.total_pages(); ++page) {
    const SlotCount t = workload.expected_time_of(page);
    const auto times = index.appearances(page);

    if (times.empty()) {
      report.valid = false;
      std::ostringstream os;
      os << "page " << page << " never appears in the program";
      report.violations.push_back(os.str());
      continue;
    }

    // Waste diagnostic: duplicate appearance in the same column.
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (times[i] == times[i - 1]) {
        std::ostringstream os;
        os << "page " << page << " appears twice in column "
           << (times[i] - 1);
        report.warnings.push_back(os.str());
      }
    }

    // Condition (1): first completion within t slots of the cycle start.
    if (times.front() > t) {
      report.valid = false;
      std::ostringstream os;
      os << "page " << page << " first completes at " << times.front()
         << " > expected time " << t;
      report.violations.push_back(os.str());
    }

    // Condition (2): all gaps, including wrap-around, within t.
    const SlotCount gap = index.max_gap(page);
    report.worst_wait = std::max(report.worst_wait, gap);
    report.worst_lateness = std::max(report.worst_lateness, gap - t);
    if (gap > t) {
      report.valid = false;
      std::ostringstream os;
      os << "page " << page << " has an appearance gap of " << gap
         << " > expected time " << t;
      report.violations.push_back(os.str());
    }
  }
  return report;
}

SwapPlan plan_swap_seam_reference(const Workload& current_workload,
                                  const BroadcastProgram& current_program,
                                  SlotCount current_offset,
                                  const Workload& next_workload,
                                  const BroadcastProgram& next_program) {
  const AppearanceIndex old_index(current_program,
                                  current_workload.total_pages());
  const AppearanceIndex new_index(next_program, next_workload.total_pages());
  const PageId common = static_cast<PageId>(
      std::min(current_workload.total_pages(), next_workload.total_pages()));

  // Outstanding promise per common page: the wait the continued old cycle
  // would have delivered from the boundary.
  std::vector<PageId> pages;
  std::vector<SlotCount> promised;
  for (PageId p = 0; p < common; ++p) {
    if (old_index.count(p) == 0 || new_index.count(p) == 0) continue;
    pages.push_back(p);
    promised.push_back(integral_wait_after(old_index, p, current_offset));
  }
  if (pages.empty()) return SwapPlan{0, 0};

  const SlotCount cycle = next_program.cycle_length();
  SwapPlan best{0, std::numeric_limits<SlotCount>::max()};
  for (SlotCount r = 0; r < cycle; ++r) {
    SlotCount lateness = std::numeric_limits<SlotCount>::min();
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const SlotCount wait = integral_wait_after(new_index, pages[i], r);
      lateness = std::max(lateness, wait - promised[i]);
      if (lateness >= best.seam_lateness) break;  // cannot improve
    }
    if (lateness < best.seam_lateness) best = SwapPlan{r, lateness};
    if (best.seam_lateness <= 0) break;  // smallest seam-clean rotation wins
  }
  return best;
}

PlacementResult place_even_spread_reference(const Workload& workload,
                                            std::span<const SlotCount> S,
                                            SlotCount channels) {
  TCSA_REQUIRE(channels >= 1, "place_even_spread: need at least one channel");
  const SlotCount t_major = major_cycle(workload, S, channels);
  PlacementResult result{BroadcastProgram(channels, t_major), 0};
  BroadcastProgram& program = result.program;

  for (GroupId g : descending_frequency_order(workload, S)) {
    const SlotCount s = S[static_cast<std::size_t>(g)];
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      for (SlotCount k = 1; k <= s; ++k) {
        const SlotCount lo =
            std::min((t_major * (k - 1) + s - 1) / s, t_major - 1);  // ceil
        const SlotCount hi =
            std::max(std::min((t_major * k + s - 1) / s, t_major), lo + 1);
        bool placed = false;
        for (SlotCount column = lo; column < hi && !placed; ++column) {
          for (SlotCount channel = 0; channel < channels; ++channel) {
            if (program.empty_at(channel, column)) {
              program.place(channel, column, page);
              placed = true;
              break;
            }
          }
        }
        if (!placed) {
          ++result.window_overflows;
          reference_place_from(program, page, hi % t_major);
        }
      }
    }
  }
  return result;
}

SimResult simulate_requests_reference(const AppearanceIndex& index,
                                      const Workload& workload,
                                      const std::vector<Request>& requests) {
  SimResult result;
  result.requests = requests.size();
  result.group_avg_delay.assign(
      static_cast<std::size_t>(workload.group_count()), 0.0);
  if (requests.empty()) return result;

  OnlineStats waits;
  SampleSet delays;
  delays.reserve(requests.size());
  std::vector<OnlineStats> group_delays(
      static_cast<std::size_t>(workload.group_count()));
  std::size_t misses = 0;

  for (const Request& request : requests) {
    const double wait = index.wait_after(request.page, request.arrival);
    const GroupId g = workload.group_of(request.page);
    const auto deadline = static_cast<double>(workload.expected_time(g));
    const double delay = std::max(0.0, wait - deadline);
    waits.add(wait);
    delays.add(delay);
    group_delays[static_cast<std::size_t>(g)].add(delay);
    if (wait > deadline) ++misses;
  }

  result.avg_wait = waits.mean();
  result.avg_delay = delays.mean();
  result.miss_rate =
      static_cast<double>(misses) / static_cast<double>(requests.size());
  result.p50_delay = delays.quantile(0.50);
  result.p95_delay = delays.quantile(0.95);
  result.p99_delay = delays.quantile(0.99);
  result.max_delay = delays.max();
  for (std::size_t g = 0; g < group_delays.size(); ++g)
    result.group_avg_delay[g] = group_delays[g].mean();
  return result;
}

// ------------------------------------------------ LogHistogramReference

namespace {

constexpr std::size_t kHistBuckets = obs::LogHistogram::kBuckets;
constexpr std::size_t kHistSide = obs::LogHistogram::kSideBuckets;

/// Width of layout bucket b: 1 below magnitude 128, then 2^(octave - 6).
double bucket_width(std::size_t b) {
  const std::size_t s = b >= kHistSide ? b - kHistSide : kHistSide - 1 - b;
  if (s < 128) return 1.0;
  return static_cast<double>(std::uint64_t{1} << (s / 64 - 1));
}

}  // namespace

LogHistogramReference::LogHistogramReference() : counts_(kHistBuckets, 0) {}

void LogHistogramReference::record(double value) {
  if (std::isnan(value)) return;
  ++counts_[obs::LogHistogram::bucket_index(value)];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
}

void LogHistogramReference::merge(const LogHistogramReference& other) {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < kHistBuckets; ++b) counts_[b] += other.counts_[b];
  min_ = count_ ? std::min(min_, other.min_) : other.min_;
  max_ = count_ ? std::max(max_, other.max_) : other.max_;
  count_ += other.count_;
}

void LogHistogramReference::merge_buckets(std::span<const Bucket> buckets,
                                          double min, double max) {
  std::uint64_t added = 0;
  for (const Bucket& bucket : buckets) {
    counts_[bucket.index] += bucket.count;
    added += bucket.count;
  }
  if (added == 0) return;
  min_ = count_ ? std::min(min_, min) : min;
  max_ = count_ ? std::max(max_, max) : max;
  count_ += added;
}

void LogHistogramReference::subtract(const LogHistogramReference& base) {
  if (base.count_ == 0) return;
  for (std::size_t b = 0; b < kHistBuckets; ++b) counts_[b] -= base.counts_[b];
  count_ -= base.count_;
  if (count_ == 0) {
    min_ = max_ = 0.0;
    return;
  }
  std::size_t low = 0;
  while (counts_[low] == 0) ++low;
  std::size_t high = kHistBuckets - 1;
  while (counts_[high] == 0) --high;
  if (low > 0)
    min_ = std::max(min_, obs::LogHistogram::bucket_value(low) -
                              bucket_width(low) / 2.0);
  if (high + 1 < kHistBuckets)
    max_ = std::min(max_, obs::LogHistogram::bucket_value(high) +
                              bucket_width(high) / 2.0);
}

std::vector<LogHistogramReference::Bucket> LogHistogramReference::buckets()
    const {
  std::vector<Bucket> out;
  for (std::size_t b = 0; b < kHistBuckets; ++b)
    if (counts_[b] != 0) out.push_back({b, counts_[b]});
  return out;
}

double LogHistogramReference::quantile(double q) const {
  double out = 0.0;
  quantiles({&q, 1}, {&out, 1});
  return out;
}

void LogHistogramReference::quantiles(std::span<const double> qs,
                                      std::span<double> out) const {
  std::size_t next = 0;
  if (count_ == 0) {
    for (; next < qs.size(); ++next) out[next] = 0.0;
    return;
  }
  std::uint64_t seen = 0;
  for (std::size_t b = obs::LogHistogram::bucket_index(min_);
       b < kHistBuckets && next < qs.size(); ++b) {
    seen += counts_[b];
    for (; next < qs.size(); ++next) {
      const std::uint64_t rank = nearest_rank_position(qs[next], count_);
      if (seen < rank) break;
      const double mid = obs::LogHistogram::bucket_value(b);
      out[next] = rank == 1        ? min_
                  : rank == count_ ? max_
                                   : std::clamp(mid, min_, max_);
    }
  }
}

// ------------------------------------------------ SlotTimelineReference

SlotTimelineReference::SlotTimelineReference(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      words_(capacity_ * kCellWords, 0) {}

void SlotTimelineReference::record(const obs::SlotRecord& rec) noexcept {
  const std::uint64_t ordinal = head_.load(std::memory_order_relaxed);
  const std::size_t cell = ordinal % capacity_;
  const std::uint64_t seq = word(cell, 0).load(std::memory_order_relaxed);
  word(cell, 0).store(seq + 1, std::memory_order_release);
  word(cell, 1).store(rec.slot, std::memory_order_relaxed);
  word(cell, 2).store(static_cast<std::uint64_t>(rec.scheduled_us),
                      std::memory_order_relaxed);
  word(cell, 3).store(static_cast<std::uint64_t>(rec.actual_us),
                      std::memory_order_relaxed);
  word(cell, 4).store(rec.bytes_flushed, std::memory_order_relaxed);
  word(cell, 5).store(rec.sessions, std::memory_order_relaxed);
  word(cell, 6).store(rec.evictions, std::memory_order_relaxed);
  word(cell, 7).store(rec.generation, std::memory_order_relaxed);
  word(cell, 8).store(rec.aired_mask, std::memory_order_relaxed);
  word(cell, 0).store(seq + 2, std::memory_order_release);
  head_.store(ordinal + 1, std::memory_order_release);
}

std::vector<obs::SlotRecord> SlotTimelineReference::snapshot(
    std::size_t max_records) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t available = std::min<std::uint64_t>(head, capacity_);
  if (max_records != 0)
    available = std::min<std::uint64_t>(available, max_records);
  std::vector<obs::SlotRecord> out;
  for (std::uint64_t ordinal = head - available; ordinal < head; ++ordinal) {
    const std::size_t cell = ordinal % capacity_;
    obs::SlotRecord rec;
    bool consistent = false;
    for (int attempt = 0; attempt < 2 && !consistent; ++attempt) {
      const std::uint64_t before =
          word(cell, 0).load(std::memory_order_acquire);
      if (before % 2 != 0) continue;
      rec.slot = word(cell, 1).load(std::memory_order_relaxed);
      rec.scheduled_us = static_cast<std::int64_t>(
          word(cell, 2).load(std::memory_order_relaxed));
      rec.actual_us = static_cast<std::int64_t>(
          word(cell, 3).load(std::memory_order_relaxed));
      rec.bytes_flushed = word(cell, 4).load(std::memory_order_relaxed);
      rec.sessions = word(cell, 5).load(std::memory_order_relaxed);
      rec.evictions = word(cell, 6).load(std::memory_order_relaxed);
      rec.generation = word(cell, 7).load(std::memory_order_relaxed);
      rec.aired_mask = word(cell, 8).load(std::memory_order_relaxed);
      consistent = before == word(cell, 0).load(std::memory_order_acquire);
    }
    if (consistent) out.push_back(rec);
  }
  return out;
}

std::string SlotTimelineReference::to_json(std::size_t max_records) const {
  std::string out = "{\n  \"capacity\": ";
  out += std::to_string(capacity_);
  out += ",\n  \"recorded\": ";
  out += std::to_string(recorded());
  out += ",\n  \"slots\": [";
  bool first = true;
  for (const obs::SlotRecord& rec : snapshot(max_records)) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"slot\": " + std::to_string(rec.slot);
    out += ", \"scheduled_us\": " + std::to_string(rec.scheduled_us);
    out += ", \"actual_us\": " + std::to_string(rec.actual_us);
    out += ", \"lag_us\": " + std::to_string(rec.lag_us());
    out += ", \"bytes_flushed\": " + std::to_string(rec.bytes_flushed);
    out += ", \"sessions\": " + std::to_string(rec.sessions);
    out += ", \"evictions\": " + std::to_string(rec.evictions);
    out += ", \"generation\": " + std::to_string(rec.generation);
    out += ", \"aired_mask\": " + std::to_string(rec.aired_mask);
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace tcsa
