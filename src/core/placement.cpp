#include "core/placement.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/delay_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace tcsa {
namespace {

struct PlacementMetrics {
  obs::MetricId placements;
  obs::MetricId copies;
  obs::MetricId uf_jumps;
  obs::MetricId overflows;
};

const PlacementMetrics& placement_metrics() {
  static const PlacementMetrics metrics{
      obs::register_counter("tcsa_placement_runs_total",
                            "Placement passes executed"),
      obs::register_counter("tcsa_placement_copies_total",
                            "Page copies placed into programs"),
      obs::register_counter(
          "tcsa_placement_uf_jumps_total",
          "Union-find pointer jumps while locating free columns"),
      obs::register_counter(
          "tcsa_warn_placement_window_overflow_total",
          "Copies that fell outside their even-spread window (WARN)"),
  };
  return metrics;
}

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

/// Occupancy bookkeeping that makes every placement amortised near-O(1).
///
/// Two observations about the placement loops:
///  * Within a column, the scan always takes the lowest empty channel, and
///    nothing is ever cleared mid-placement — so channels fill bottom-up and
///    "first empty channel" is simply the column's load.
///  * Across columns, the scan always takes the first non-full column at or
///    after some start — a pointer-jumping structure (interval union-find
///    with path compression) answers that in amortised near-O(1), instead of
///    re-scanning the same full columns O(t_major * channels) times.
///
/// The tracker therefore chooses *exactly* the (column, channel) the naive
/// double scan would, just without walking filled territory; a property test
/// asserts the resulting programs are identical to the reference placer.
class ColumnTracker {
 public:
  ColumnTracker(SlotCount channels, SlotCount columns)
      : channels_(channels),
        columns_(columns),
        load_(static_cast<std::size_t>(columns), 0),
        next_(static_cast<std::size_t>(columns) + 1) {
    std::iota(next_.begin(), next_.end(), SlotCount{0});
  }

  /// First non-full column >= from, or `columns()` when none remains to the
  /// right. Compresses every traversed pointer onto the answer. Jumps are
  /// tallied in a plain member (near-zero cost) and flushed to the metrics
  /// registry by the placement drivers.
  SlotCount find_from(SlotCount from) {
    SlotCount root = from;
    while (next_[static_cast<std::size_t>(root)] != root) {
      root = next_[static_cast<std::size_t>(root)];
      ++jumps_;
    }
    // Path compression: point the whole chain at the root.
    SlotCount walk = from;
    while (next_[static_cast<std::size_t>(walk)] != walk) {
      const SlotCount step = next_[static_cast<std::size_t>(walk)];
      next_[static_cast<std::size_t>(walk)] = root;
      walk = step;
    }
    return root;
  }

  /// First non-full column cyclically at/after `from`.
  /// Precondition: the program has spare capacity.
  SlotCount find_cyclic(SlotCount from) {
    SlotCount column = find_from(from);
    if (column == columns_) column = find_from(0);
    TCSA_ASSERT(column < columns_, "ColumnTracker: program is full");
    return column;
  }

  /// Places `page` into `column` on the first empty channel (== the load).
  void place(BroadcastProgram& program, SlotCount column, PageId page) {
    const SlotCount channel = load_[static_cast<std::size_t>(column)];
    TCSA_ASSERT(channel < channels_, "ColumnTracker: column already full");
    program.place(channel, column, page);
    if (++load_[static_cast<std::size_t>(column)] == channels_)
      next_[static_cast<std::size_t>(column)] = column + 1;
  }

  SlotCount columns() const noexcept { return columns_; }
  std::uint64_t jumps() const noexcept { return jumps_; }

 private:
  SlotCount channels_;
  SlotCount columns_;
  std::uint64_t jumps_ = 0;      ///< pointer jumps taken (observability)
  std::vector<SlotCount> load_;  ///< occupied channels per column
  std::vector<SlotCount> next_;  ///< pointer-jumping "next maybe-free", +1 sentinel
};

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

}  // namespace

PlacementResult place_even_spread(const Workload& workload,
                                  std::span<const SlotCount> S,
                                  SlotCount channels) {
  TCSA_REQUIRE(channels >= 1, "place_even_spread: need at least one channel");
  TCSA_TRACE_SPAN_VAR(span, "placement.even_spread");
  const SlotCount t_major = major_cycle(workload, S, channels);
  PlacementResult result{BroadcastProgram(channels, t_major), 0};
  BroadcastProgram& program = result.program;
  ColumnTracker tracker(channels, t_major);

  std::uint64_t copies = 0;
  for (GroupId g : descending_frequency_order(workload, S)) {
    const SlotCount s = S[static_cast<std::size_t>(g)];
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      for (SlotCount k = 1; k <= s; ++k) {
        // 0-based window [lo, hi): the paper's 1-based
        // [ceil(t_major (k-1) / S) + 1, ceil(t_major k / S)]. When S exceeds
        // t_major (more copies than columns; only reachable with fixed
        // frequencies like m-PB's beyond the channel bound) some windows
        // would be empty — widen them to one column so placement stays
        // defined; the extra copies simply duplicate within columns.
        const SlotCount lo =
            std::min((t_major * (k - 1) + s - 1) / s, t_major - 1);  // ceil
        const SlotCount hi =
            std::max(std::min((t_major * k + s - 1) / s, t_major), lo + 1);
        const SlotCount column = tracker.find_from(lo);
        ++copies;
        if (column < hi) {
          tracker.place(program, column, page);
        } else {
          // Deviation from the paper (documented in DESIGN.md): fall forward
          // cyclically instead of failing.
          ++result.window_overflows;
          tracker.place(program, tracker.find_cyclic(hi % t_major), page);
        }
      }
    }
  }
  if (span.active()) span.set_arg("copies", copies);
  if (obs::enabled()) {
    const PlacementMetrics& pm = placement_metrics();
    obs::counter_add(pm.placements, 1);
    obs::counter_add(pm.copies, copies);
    obs::counter_add(pm.uf_jumps, tracker.jumps());
  }
  if (result.window_overflows > 0)
    obs::counter_add_always(
        placement_metrics().overflows,
        static_cast<std::uint64_t>(result.window_overflows));
  if (result.window_overflows > 0) {
    TCSA_LOG(kWarn) << "place_even_spread: " << result.window_overflows
                    << " copies fell outside their even-spread window";
  }
  return result;
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

PlacementResult place_first_fit(const Workload& workload,
                                std::span<const SlotCount> S,
                                SlotCount channels) {
  TCSA_REQUIRE(channels >= 1, "place_first_fit: need at least one channel");
  TCSA_TRACE_SPAN("placement.first_fit");
  const SlotCount t_major = major_cycle(workload, S, channels);
  PlacementResult result{BroadcastProgram(channels, t_major), 0};
  ColumnTracker tracker(channels, t_major);

  SlotCount cursor = 0;
  std::uint64_t copies = 0;
  for (GroupId g : descending_frequency_order(workload, S)) {
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      for (SlotCount k = 0; k < S[static_cast<std::size_t>(g)]; ++k) {
        cursor = tracker.find_cyclic(cursor);
        tracker.place(result.program, cursor, page);
        ++copies;
      }
    }
  }
  if (obs::enabled()) {
    const PlacementMetrics& pm = placement_metrics();
    obs::counter_add(pm.placements, 1);
    obs::counter_add(pm.copies, copies);
    obs::counter_add(pm.uf_jumps, tracker.jumps());
  }
  return result;
}

}  // namespace tcsa
