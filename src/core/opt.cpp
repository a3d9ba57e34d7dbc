#include "core/opt.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/delay_model.hpp"
#include "core/theory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace tcsa {
namespace {

/// Search observability: per-subtree counts are accumulated in plain ints
/// inside LadderOutcome (zero atomic traffic in the hot loop) and flushed to
/// the registry once per subtree.
struct OptMetrics {
  obs::MetricId searches;
  obs::MetricId subtrees;
  obs::MetricId nodes;
  obs::MetricId leaves;
  obs::MetricId prunes;
  obs::MetricId budget_bails;
  obs::MetricId merge_winner;
};

const OptMetrics& opt_metrics() {
  static const OptMetrics metrics{
      obs::register_counter("tcsa_opt_searches_total",
                            "Ladder searches started"),
      obs::register_counter("tcsa_opt_subtrees_total",
                            "Independent subtree tasks explored"),
      obs::register_counter("tcsa_opt_nodes_total",
                            "Search nodes expanded (one per candidate rho)"),
      obs::register_counter("tcsa_opt_leaves_total",
                            "Complete frequency vectors evaluated"),
      obs::register_counter("tcsa_opt_prunes_total",
                            "Subtree ladders cut by the zero-delay rule"),
      obs::register_counter(
          "tcsa_warn_opt_budget_exhausted_total",
          "Subtrees that hit the per-subtree evaluation budget (WARN)"),
      obs::register_gauge(
          "tcsa_opt_merge_winner_task",
          "Subtree task index that produced the last search winner"),
  };
  return metrics;
}

/// Candidate tracker under the deterministic total order:
/// min delay -> fewer total slots -> lexicographically smallest S.
/// The order is total, so merging trackers is associative and commutative —
/// the search result is independent of thread count and task order.
struct Best {
  std::vector<SlotCount> S;
  double delay = std::numeric_limits<double>::infinity();
  SlotCount slots = std::numeric_limits<SlotCount>::max();

  /// True when (candidate_delay, candidate_slots, candidate) precedes the
  /// held optimum in the total order. `candidate` may be empty only when the
  /// comparison is decided before the lexicographic step (see offer()).
  bool precedes(double candidate_delay, SlotCount candidate_slots,
                std::span<const SlotCount> candidate) const {
    if (candidate_delay != delay) return candidate_delay < delay;
    if (candidate_slots != slots) return candidate_slots < slots;
    return std::lexicographical_compare(candidate.begin(), candidate.end(),
                                        S.begin(), S.end());
  }

  /// Offer with the slot total already known (the ladder search maintains it
  /// incrementally, so the tie-break costs nothing).
  void offer(std::span<const SlotCount> candidate, double candidate_delay,
             SlotCount candidate_slots) {
    if (!precedes(candidate_delay, candidate_slots, candidate)) return;
    delay = candidate_delay;
    slots = candidate_slots;
    S.assign(candidate.begin(), candidate.end());
  }

  /// Offer that computes the O(h) slot total lazily: only once the delay is
  /// at least tied does the tie-break get evaluated.
  void offer(const Workload& workload, std::span<const SlotCount> candidate,
             double candidate_delay) {
    if (candidate_delay > delay) return;
    offer(candidate, candidate_delay, total_slots(workload, candidate));
  }

  void merge(const Best& other) {
    if (other.S.empty()) return;
    if (precedes(other.delay, other.slots, other.S)) {
      delay = other.delay;
      slots = other.slots;
      S = other.S;
    }
  }
};

constexpr std::uint64_t kEvaluationBudget = 5'000'000;

/// Stage-1..k ratio prefixes are expanded breadth-first until at least this
/// many independent subtrees exist; the pool then schedules them dynamically.
/// A constant (never derived from the thread count) so the decomposition —
/// and hence the budget accounting — is identical for every thread count.
constexpr std::size_t kTargetTasks = 256;

/// Flat, bounds-check-free view of the workload for the search hot loop.
/// expected_time()/pages_in_group() validate their argument on every call;
/// the ladder search proves its indices once, so it reads plain arrays.
struct LadderContext {
  SlotCount channels;
  GroupId h;
  std::vector<SlotCount> t;  ///< expected times t_g
  std::vector<SlotCount> P;  ///< pages per group P_g
  double total_pages;

  LadderContext(const Workload& workload, SlotCount channels_in)
      : channels(channels_in),
        h(workload.group_count()),
        total_pages(static_cast<double>(workload.total_pages())) {
    t.reserve(static_cast<std::size_t>(h));
    P.reserve(static_cast<std::size_t>(h));
    for (GroupId g = 0; g < h; ++g) {
      t.push_back(workload.expected_time(g));
      P.push_back(workload.pages_in_group(g));
    }
  }
};

/// One unit of parallel work: ratios r_1..r_k fixed (stored 0-based), the
/// subtree over stages k+1..h-1 still to explore. `f_prev` caches the slot
/// total of the implied prefix S_0..S_k (with S_k = 1) so workers never
/// re-derive it.
struct LadderTask {
  std::vector<SlotCount> ratios;
  SlotCount f_prev = 0;
};

/// Per-task outcome; merged deterministically after the pool drains.
/// `nodes` / `prunes` feed the metrics registry (flushed once per subtree);
/// they never influence the search result.
struct LadderOutcome {
  Best best;
  std::uint64_t evaluations = 0;
  std::uint64_t nodes = 0;
  std::uint64_t prunes = 0;
  bool budget_exhausted = false;
};

/// Exact zero-delay test for the prefix S_0..S_stage (S_g = rho * base[g]
/// for g < stage, S_stage = 1): the prefix meets every deadline iff
/// t_major <= S_g * t_g for all g — integer arithmetic, no floats, and
/// exactly equivalent to `prefix_delay(...) == 0.0` in the seed code
/// because every delay term is non-negative and vanishes iff its group's
/// spacing is within the deadline.
bool prefix_meets_deadlines(const LadderContext& ctx,
                            const SlotCount* base, SlotCount rho,
                            GroupId stage, SlotCount prefix_slots) {
  const SlotCount t_major =
      (prefix_slots + ctx.channels - 1) / ctx.channels;
  if (ctx.t[static_cast<std::size_t>(stage)] < t_major) return false;
  for (GroupId g = 0; g < stage; ++g) {
    if (base[static_cast<std::size_t>(g)] * rho *
            ctx.t[static_cast<std::size_t>(g)] <
        t_major)
      return false;
  }
  return true;
}

/// Per-stage ratio cap, identical to the seed's Algorithm-3 cap:
/// ceil((channels * t_stage - P_stage) / f_prev), floored at 1.
SlotCount stage_cap(const LadderContext& ctx, GroupId stage,
                    SlotCount f_prev) {
  const SlotCount budget =
      ctx.channels * ctx.t[static_cast<std::size_t>(stage)] -
      ctx.P[static_cast<std::size_t>(stage)];
  return budget <= 0 ? 1 : (budget + f_prev - 1) / f_prev;
}

/// Depth-first exploration of one task's subtree with incremental state.
///
/// Instead of refilling S_ and re-summing the prefix at every node (the seed
/// behaviour — two O(h) passes plus an O(h) objective with bounds-checked
/// accessors per evaluation), each stage keeps its prefix at rho = 1 in a
/// scratch row; scaling by rho is a multiply, the slot total is the linear
/// form rho * f_prev + P_stage, and the leaf objective is a single fused
/// pass that reproduces analytic_average_delay's float operations bit for
/// bit (same expressions, same order, same rounding).
class LadderWorker {
 public:
  explicit LadderWorker(const LadderContext& ctx)
      : ctx_(ctx),
        rows_(static_cast<std::size_t>(ctx.h) *
              static_cast<std::size_t>(ctx.h)),
        candidate_(static_cast<std::size_t>(ctx.h)) {}

  LadderOutcome run(const LadderTask& task) {
    outcome_ = LadderOutcome{};
    const auto k = static_cast<GroupId>(task.ratios.size());
    // Materialise the fixed prefix at rho = 1 of stage k+1:
    // S_g = prod_{i=g..k-1} r_i for g < k, S_k = 1.
    SlotCount* row = row_of(k + 1);
    row[static_cast<std::size_t>(k)] = 1;
    for (GroupId g = k - 1; g >= 0; --g)
      row[static_cast<std::size_t>(g)] =
          row[static_cast<std::size_t>(g) + 1] *
          task.ratios[static_cast<std::size_t>(g)];
    descend(k + 1, task.f_prev);
    return std::move(outcome_);
  }

 private:
  SlotCount* row_of(GroupId stage) {
    return rows_.data() +
           static_cast<std::size_t>(stage - 1) * static_cast<std::size_t>(ctx_.h);
  }

  /// Explores stages [stage, h-1]. Precondition: row_of(stage) holds the
  /// prefix S_0..S_{stage-1} at rho = 1 (so S_{stage-1} == 1) and `f_prev`
  /// is its slot total.
  void descend(GroupId stage, SlotCount f_prev) {
    const SlotCount* base = row_of(stage);
    const SlotCount cap = stage_cap(ctx_, stage, f_prev);
    const SlotCount ladder_step =
        ctx_.t[static_cast<std::size_t>(stage)] /
        ctx_.t[static_cast<std::size_t>(stage) - 1];
    const SlotCount p_stage = ctx_.P[static_cast<std::size_t>(stage)];
    for (SlotCount rho = 1; rho <= cap; ++rho) {
      ++outcome_.nodes;
      const SlotCount prefix_slots = rho * f_prev + p_stage;
      if (stage == ctx_.h - 1) {
        ++outcome_.evaluations;
        if (outcome_.evaluations > kEvaluationBudget) {
          outcome_.budget_exhausted = true;
          return;
        }
        offer_leaf(base, rho, prefix_slots);
      } else {
        // Child prefix at rho = 1: this prefix scaled by rho, then S_stage=1.
        SlotCount* child = row_of(stage + 1);
        for (GroupId g = 0; g < stage; ++g)
          child[static_cast<std::size_t>(g)] =
              base[static_cast<std::size_t>(g)] * rho;
        child[static_cast<std::size_t>(stage)] = 1;
        descend(stage + 1, prefix_slots);
        if (outcome_.budget_exhausted) return;
      }
      // Once the prefix meets every deadline AND rho has reached the
      // deadline-ladder step, a larger rho can only consume bandwidth the
      // remaining groups need. (Stopping at the first zero alone is
      // unsound: ceil() effects can make rho = 1 a zero while the balanced
      // step still improves later stages.)
      if (rho >= ladder_step &&
          prefix_meets_deadlines(ctx_, base, rho, stage, prefix_slots)) {
        ++outcome_.prunes;
        break;
      }
    }
  }

  /// Evaluates the complete vector (S_g = base[g] * rho for g < h-1,
  /// S_{h-1} = 1) in one pass. Float arithmetic mirrors
  /// analytic_average_delay exactly: t_major from the integral ceiling,
  /// spacing = t_major / S_g, per-group term P_g * (late^2 / (2 spacing)),
  /// summed in ascending group order, divided by n once.
  void offer_leaf(const SlotCount* base, SlotCount rho,
                  SlotCount total_slots) {
    const auto t_major = static_cast<double>(
        (total_slots + ctx_.channels - 1) / ctx_.channels);
    double sum = 0.0;
    const auto h = static_cast<std::size_t>(ctx_.h);
    for (std::size_t g = 0; g < h; ++g) {
      const SlotCount s_g = g + 1 < h ? base[g] * rho : 1;
      const double spacing = t_major / static_cast<double>(s_g);
      const auto t = static_cast<double>(ctx_.t[g]);
      if (spacing > t) {
        const double late = spacing - t;
        sum += static_cast<double>(ctx_.P[g]) *
               (late * late / (2.0 * spacing));
      }
    }
    const double delay = sum / ctx_.total_pages;
    // precedes() with an empty candidate treats a full (delay, slots) tie as
    // a win, so a false here is conclusive — the leaf is strictly worse and
    // S never needs materialising.
    if (!outcome_.best.precedes(delay, total_slots, {})) return;
    for (std::size_t g = 0; g + 1 < h; ++g) candidate_[g] = base[g] * rho;
    candidate_[h - 1] = 1;
    outcome_.best.offer(candidate_, delay, total_slots);
  }

  const LadderContext& ctx_;
  std::vector<SlotCount> rows_;       ///< per-stage rho=1 prefixes, h rows
  std::vector<SlotCount> candidate_;  ///< scratch for materialised leaves
  LadderOutcome outcome_;
};

/// Splits the ladder into independent subtrees by fixing ratio prefixes
/// breadth-first (stage 1 first, exactly the seed's enumeration order and
/// pruning rule) until at least kTargetTasks subtrees exist or every prefix
/// reaches the leaf stage. The expansion never evaluates a leaf, so it
/// consumes no budget; its output depends only on the workload and channel
/// count, never on the thread count.
std::vector<LadderTask> make_ladder_tasks(const LadderContext& ctx) {
  std::deque<LadderTask> frontier;
  frontier.push_back(LadderTask{{}, ctx.P[0]});
  std::vector<SlotCount> base(static_cast<std::size_t>(ctx.h));
  while (frontier.size() < kTargetTasks) {
    const auto k = static_cast<GroupId>(frontier.front().ratios.size());
    const GroupId stage = k + 1;
    if (stage >= ctx.h - 1) break;  // FIFO keeps depths level: all done
    const LadderTask task = std::move(frontier.front());
    frontier.pop_front();
    // Prefix at rho = 1 of `stage` (S_{k} = 1, ratios below).
    base[static_cast<std::size_t>(k)] = 1;
    for (GroupId g = k - 1; g >= 0; --g)
      base[static_cast<std::size_t>(g)] =
          base[static_cast<std::size_t>(g) + 1] *
          task.ratios[static_cast<std::size_t>(g)];
    const SlotCount cap = stage_cap(ctx, stage, task.f_prev);
    const SlotCount ladder_step =
        ctx.t[static_cast<std::size_t>(stage)] /
        ctx.t[static_cast<std::size_t>(stage) - 1];
    for (SlotCount rho = 1; rho <= cap; ++rho) {
      LadderTask child;
      child.ratios.reserve(task.ratios.size() + 1);
      child.ratios = task.ratios;
      child.ratios.push_back(rho);
      child.f_prev =
          rho * task.f_prev + ctx.P[static_cast<std::size_t>(stage)];
      frontier.push_back(std::move(child));
      if (rho >= ladder_step &&
          prefix_meets_deadlines(ctx, base.data(), rho, stage,
                                 rho * task.f_prev +
                                     ctx.P[static_cast<std::size_t>(stage)])) {
        break;
      }
    }
  }
  return {frontier.begin(), frontier.end()};
}

/// The complete parallel ladder search. Every task runs with its own Best
/// and evaluation counter (budget applies per subtree, so the outcome is
/// independent of scheduling); the merge applies the total order.
OptResult ladder_search(const Workload& workload, SlotCount channels,
                        unsigned threads) {
  TCSA_TRACE_SPAN_VAR(search_span, "opt.ladder_search");
  obs::counter_add(opt_metrics().searches, 1);
  const LadderContext ctx(workload, channels);
  if (ctx.h == 1) {
    Best best;
    const std::vector<SlotCount> S{1};
    best.offer(workload, S, analytic_average_delay(workload, S, channels));
    return OptResult{std::move(best.S), best.delay, 1};
  }

  std::vector<LadderTask> tasks;
  {
    TCSA_TRACE_SPAN("opt.make_tasks");
    tasks = make_ladder_tasks(ctx);
  }
  if (search_span.active()) search_span.set_arg("subtrees", tasks.size());
  std::vector<LadderOutcome> outcomes(tasks.size());
  parallel_for(tasks.size(), threads, [&](std::size_t i) {
    TCSA_TRACE_SPAN_VAR(subtree_span, "opt.subtree");
    if (subtree_span.active()) subtree_span.set_arg("task", i);
    LadderWorker worker(ctx);
    outcomes[i] = worker.run(tasks[i]);
    if (obs::enabled()) {
      const OptMetrics& om = opt_metrics();
      obs::counter_add(om.subtrees, 1);
      obs::counter_add(om.nodes, outcomes[i].nodes);
      obs::counter_add(om.leaves, outcomes[i].evaluations);
      obs::counter_add(om.prunes, outcomes[i].prunes);
    }
  });

  TCSA_TRACE_SPAN("opt.merge");
  Best best;
  std::uint64_t evaluations = 0;
  std::size_t winner = 0;
  bool exhausted = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const LadderOutcome& outcome = outcomes[i];
    if (!outcome.best.S.empty() &&
        best.precedes(outcome.best.delay, outcome.best.slots, outcome.best.S))
      winner = i;
    best.merge(outcome.best);
    evaluations += outcome.evaluations;
    exhausted = exhausted || outcome.budget_exhausted;
  }
  obs::gauge_set(opt_metrics().merge_winner, static_cast<double>(winner));
  if (exhausted) {
    // Always counted (not gated on obs::enabled) so budget bails stay
    // observable even when nobody asked for metrics up front.
    obs::counter_add_always(opt_metrics().budget_bails, 1);
    TCSA_LOG(kWarn) << "opt ladder search: per-subtree evaluation budget "
                       "reached; result refined by hill climb only";
  }
  return OptResult{std::move(best.S), best.delay, evaluations};
}

/// Integerises the continuous waterfilling spacings (see core/theory.hpp)
/// at successively finer scales K:
/// S_i = round(K * g_max / g_i) >= 1, so frequency ratios approach the
/// continuous optimum as K grows. Every candidate is offered to `best`.
void offer_waterfilling_candidates(const Workload& workload,
                                   SlotCount channels, Best& best,
                                   std::uint64_t& evaluations) {
  TCSA_TRACE_SPAN("opt.waterfilling");
  const std::vector<double> spacings = waterfilling_spacings(workload, channels);
  if (spacings.empty()) return;
  const double g_max = *std::max_element(spacings.begin(), spacings.end());
  std::vector<SlotCount> S(spacings.size());
  constexpr SlotCount kMaxScale = 64;
  for (SlotCount scale = 1; scale <= kMaxScale; ++scale) {
    for (std::size_t g = 0; g < spacings.size(); ++g) {
      S[g] = std::max<SlotCount>(
          1, static_cast<SlotCount>(
                 std::llround(static_cast<double>(scale) * g_max / spacings[g])));
    }
    ++evaluations;
    best.offer(workload, S, analytic_average_delay(workload, S, channels));
  }
}

/// Coordinate hill climb: try S_g +- 1, S_g * 2, S_g / 2 for every group,
/// take the best improving move, repeat to a local optimum.
void hill_climb(const Workload& workload, SlotCount channels, Best& best,
                std::uint64_t& evaluations) {
  TCSA_TRACE_SPAN("opt.hill_climb");
  TCSA_ASSERT(!best.S.empty(), "hill_climb: seed solution required");
  bool improved = true;
  std::vector<SlotCount> trial = best.S;
  while (improved) {
    improved = false;
    Best round = best;
    for (std::size_t g = 0; g < trial.size(); ++g) {
      const SlotCount original = best.S[g];
      const SlotCount moves[] = {original + 1, original - 1, original * 2,
                                 original / 2};
      for (const SlotCount candidate : moves) {
        if (candidate < 1 || candidate == original) continue;
        trial = best.S;
        trial[g] = candidate;
        ++evaluations;
        round.offer(workload, trial,
                    analytic_average_delay(workload, trial, channels));
      }
    }
    if (round.delay < best.delay ||
        (round.delay == best.delay && round.slots < best.slots)) {
      best = round;
      improved = true;
    }
  }
}

}  // namespace

OptResult brute_force_frequencies(const Workload& workload, SlotCount channels,
                                  SlotCount max_freq) {
  TCSA_REQUIRE(channels >= 1, "brute_force: need at least one channel");
  TCSA_REQUIRE(max_freq >= 1, "brute_force: max_freq must be >= 1");
  const GroupId h = workload.group_count();
  double candidates = 1.0;
  for (GroupId g = 0; g < h; ++g) candidates *= static_cast<double>(max_freq);
  TCSA_REQUIRE(candidates <= 50e6,
               "brute_force: search space too large — this is a test oracle");

  Best best;
  std::vector<SlotCount> S(static_cast<std::size_t>(h), 1);
  std::uint64_t evaluations = 0;
  while (true) {
    ++evaluations;
    best.offer(workload, S, analytic_average_delay(workload, S, channels));
    // Odometer increment.
    GroupId g = 0;
    for (; g < h; ++g) {
      auto& digit = S[static_cast<std::size_t>(g)];
      if (digit < max_freq) {
        ++digit;
        break;
      }
      digit = 1;
    }
    if (g == h) break;
  }
  return OptResult{std::move(best.S), best.delay, evaluations};
}

OptResult opt_frequencies(const Workload& workload, SlotCount channels,
                          unsigned threads) {
  TCSA_REQUIRE(channels >= 1, "opt_frequencies: need at least one channel");
  return ladder_search(workload, channels, threads);
}

OptResult opt_frequencies_unconstrained(const Workload& workload,
                                        SlotCount channels, unsigned threads) {
  TCSA_REQUIRE(channels >= 1,
               "opt_frequencies_unconstrained: need at least one channel");
  OptResult ladder = ladder_search(workload, channels, threads);
  Best best;
  best.delay = ladder.predicted_delay;
  best.slots = total_slots(workload, ladder.S);
  best.S = std::move(ladder.S);
  std::uint64_t evaluations = ladder.evaluations;
  offer_waterfilling_candidates(workload, channels, best, evaluations);
  hill_climb(workload, channels, best, evaluations);
  return OptResult{std::move(best.S), best.delay, evaluations};
}

OptSchedule schedule_opt(const Workload& workload, SlotCount channels) {
  OptResult search = opt_frequencies(workload, channels);
  PlacementResult placed = place_even_spread(workload, search.S, channels);
  return OptSchedule{std::move(search), std::move(placed.program),
                     placed.window_overflows};
}

}  // namespace tcsa
