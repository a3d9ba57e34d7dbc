// estimator.hpp — learning expected times from client feedback.
//
// The paper assumes expected times are known, citing piggybacking and
// probing techniques for obtaining them ([4, 9, 13, 14, 16, 17]). This
// module implements the server side of that loop: clients piggyback their
// actual tolerance on requests; the estimator keeps a bounded window of
// recent samples per content class and reports a conservative low quantile
// as the class's expected time. Rounding onto the scheduling ladder is the
// caller's job, as in the Section-2 pipeline. Nothing in the tree feeds it
// yet: it is the first stage of the parked closed-loop direction
// (estimator -> choose_schedule -> seam-planned swap; see ROADMAP.md).
#pragma once

#include <cstddef>
#include <vector>

#include "model/types.hpp"

namespace tcsa {

/// Per-class sliding-window quantile estimator for client tolerances.
class ToleranceEstimator {
 public:
  /// `classes` content classes, each remembering up to `window` samples
  /// (oldest evicted first).
  ToleranceEstimator(GroupId classes, std::size_t window = 512);

  /// Records one piggybacked tolerance (>= 1 slot) for `cls`.
  void add_sample(GroupId cls, SlotCount tolerance);

  /// Samples currently held for `cls`.
  std::size_t sample_count(GroupId cls) const;

  /// Conservative estimate: the `quantile` (in [0, 1], default 0.1 — i.e.
  /// 90% of observed clients tolerate at least this) of the class window,
  /// or `fallback` when no samples have arrived yet.
  SlotCount estimate(GroupId cls, double quantile, SlotCount fallback) const;

  GroupId classes() const noexcept {
    return static_cast<GroupId>(windows_.size());
  }

 private:
  struct Window {
    std::vector<SlotCount> samples;  // ring buffer
    std::size_t next = 0;            // insertion cursor
    bool full = false;
  };

  std::size_t capacity_;
  std::vector<Window> windows_;
};

}  // namespace tcsa
