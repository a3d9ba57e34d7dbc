// parallel.hpp — the shared work-pool behind every parallel kernel.
//
// One primitive, `parallel_for`, runs `fn(i)` for i in [0, tasks) across a
// bounded set of worker threads with dynamic (atomic-counter) scheduling.
// Design rules, enforced here so every caller inherits them:
//
//  * Determinism is the caller's job and the pool makes it easy: tasks are
//    identified by a dense index, so callers write results into slot i of a
//    pre-sized vector and merge with an associative, total-order rule.
//    Nothing about the *values* produced may depend on which thread ran a
//    task or in what order tasks interleaved.
//  * threads == 0 means hardware concurrency; threads <= 1 (or a single
//    task) degrades to a plain inline loop — no thread is ever spawned, so
//    serial callers pay nothing and serial/parallel share one code path.
//  * The calling thread participates as a worker (tasks never wait on an
//    idle caller), and the first exception thrown by any task is captured
//    and rethrown on the calling thread after all workers join.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tcsa {

namespace detail {
/// Work-pool metrics, registered once per process on first use.
struct PoolMetrics {
  obs::MetricId runs;
  obs::MetricId tasks;
  obs::MetricId queue_depth;
  obs::MetricId workers;
  obs::MetricId task_us;
  obs::MetricId idle_us;
};

inline const PoolMetrics& pool_metrics() {
  static const PoolMetrics metrics{
      obs::register_counter("tcsa_pool_runs_total",
                            "parallel_for invocations"),
      obs::register_counter("tcsa_pool_tasks_total",
                            "Tasks executed across all parallel_for runs"),
      obs::register_gauge("tcsa_pool_queue_depth",
                          "Task count of the most recent parallel_for"),
      obs::register_counter("tcsa_pool_workers_total",
                            "Worker threads spawned (caller excluded)"),
      obs::register_histogram("tcsa_pool_task_us",
                              "Per-task wall time (microseconds)"),
      obs::register_counter(
          "tcsa_pool_idle_us_total",
          "Worker wall time not spent inside tasks (microseconds)"),
  };
  return metrics;
}
}  // namespace detail

/// Resolves a requested thread count: 0 = hardware concurrency (at least 1).
inline unsigned resolve_thread_count(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs fn(i) for every i in [0, tasks) on up to `threads` workers
/// (0 = hardware concurrency). Tasks are claimed dynamically via an atomic
/// counter, so uneven task costs balance automatically. fn must be safe to
/// invoke concurrently from distinct threads on distinct indices.
template <typename Fn>
void parallel_for(std::size_t tasks, unsigned threads, Fn&& fn) {
  if (tasks == 0) return;
  const unsigned workers = std::min<std::size_t>(
      resolve_thread_count(threads), tasks);

  // Hoisted once: the disabled path costs one relaxed load + branch per run
  // and per task; values never depend on instrumentation, so determinism is
  // untouched. Task latency / idle time use the shared trace clock.
  const bool obs_on = obs::enabled();
  if (obs_on) {
    const detail::PoolMetrics& pm = detail::pool_metrics();
    obs::counter_add(pm.runs, 1);
    obs::counter_add(pm.tasks, tasks);
    obs::gauge_set(pm.queue_depth, static_cast<double>(tasks));
    if (workers > 1) obs::counter_add(pm.workers, workers - 1);
  }
  TCSA_TRACE_SPAN_VAR(pool_span, "pool.parallel_for");
  if (pool_span.active()) pool_span.set_arg("tasks", tasks);
  const auto run_task = [&](std::size_t i) {
    if (!obs_on) {
      fn(i);
      return;
    }
    const std::uint64_t start = obs::trace_now_us();
    fn(i);
    obs::histogram_observe(
        detail::pool_metrics().task_us,
        static_cast<double>(obs::trace_now_us() - start));
  };

  if (workers <= 1) {
    for (std::size_t i = 0; i < tasks; ++i) run_task(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  auto worker = [&]() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < tasks; i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (failed.load(std::memory_order_acquire)) return;
      try {
        run_task(i);
      } catch (...) {
        // First failure wins; `failed` orders the write to `error`.
        if (!failed.exchange(true, std::memory_order_acq_rel))
          error = std::current_exception();
        return;
      }
    }
  };
  // Spawned workers additionally report idle time (wall time in the worker
  // loop minus wall time inside tasks) and show as tracks in the trace.
  auto instrumented_worker = [&]() {
    if (!obs_on && !obs::tracing_enabled()) {
      worker();
      return;
    }
    TCSA_TRACE_SPAN("pool.worker");
    const std::uint64_t entered = obs::trace_now_us();
    std::uint64_t busy = 0;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < tasks; i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (failed.load(std::memory_order_acquire)) break;
      const std::uint64_t start = obs::trace_now_us();
      try {
        fn(i);
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_acq_rel))
          error = std::current_exception();
        break;
      }
      const std::uint64_t took = obs::trace_now_us() - start;
      busy += took;
      if (obs_on)
        obs::histogram_observe(detail::pool_metrics().task_us,
                               static_cast<double>(took));
    }
    if (obs_on)
      obs::counter_add(detail::pool_metrics().idle_us,
                       obs::trace_now_us() - entered - busy);
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned t = 0; t + 1 < workers; ++t)
    pool.emplace_back(instrumented_worker);
  worker();  // the calling thread is the last worker
  for (std::thread& t : pool) t.join();
  if (failed.load(std::memory_order_acquire) && error)
    std::rethrow_exception(error);
}

}  // namespace tcsa
