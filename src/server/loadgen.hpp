// loadgen.hpp — multi-threaded loopback load generator for the air server.
//
// Opens tens of thousands of broadcast sessions against a running
// AirServer, spreads their subscriptions across the program's channels,
// and measures what the audience actually experiences: for every kPage
// frame received inside the measurement window it records the arrival
// offset (arrival_us - slot * slot_us). Since the client does not share
// the server's slot-clock epoch, the epoch is estimated as the minimum
// observed offset — the frame that arrived with the least delay — and
// slot-airing jitter is each offset minus that minimum. Percentiles over
// the jitter distribution (p50/p99/p999) are the load test's headline
// numbers: a server whose airing loop is overloaded falls behind its slot
// clock and the whole distribution shifts right.
//
// Structure mirrors the server: N client threads, each owning one
// net::EventLoop and a private shard of sessions (non-blocking batched
// connects, frame decoding, jitter sampling — no cross-thread state on the
// hot path). A coordinator phase machine ramps every thread up, opens one
// shared measurement window, then tears everything down. The report is a
// MetricsSnapshot-shaped JSON document so it diffs and reports with the
// existing obs artifact tooling (tcsactl obs diff/report).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace tcsa {

struct LoadGenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t sessions = 1000;    ///< total sessions to open
  std::size_t threads = 2;        ///< client I/O threads (sessions split)
  std::uint64_t duration_ms = 2000;      ///< measurement window after ramp
  std::uint64_t ramp_timeout_ms = 15000; ///< give up ramping after this
  std::size_t connect_batch = 64; ///< dials in flight per thread
  /// Non-zero: p99 jitter above this many microseconds counts as an SLO
  /// violation in the report (the CLI turns it into a nonzero exit).
  double slo_p99_us = 0.0;
  /// During the measurement window each session issues a traced kReq for
  /// the last page it saw, every this-many kPage frames (0 = no requests).
  /// The journeys feed the per-request delay/slack percentiles and the
  /// deadline-miss rate in the report.
  std::uint64_t request_every = 64;
  /// >= 0: impatient-client mode. The request cadence registers *wants*
  /// instead of immediate requests: the session watches the broadcast for
  /// its page for this many slots and only sends the kReq (feeding the
  /// server's pull plane) once the patience runs out — the hybrid
  /// push/pull protocol. -1 keeps the classic immediate-request mode.
  std::int64_t patience_slots = -1;
  /// Non-zero: p99 pull-served request delay above this many microseconds
  /// counts as a pull SLO violation in the report.
  double pull_slo_p99_us = 0.0;
};

struct LoadGenReport {
  std::size_t sessions_requested = 0;
  std::size_t sessions_connected = 0;  ///< established during ramp
  std::uint64_t frames = 0;            ///< all frames received (any window)
  std::uint64_t pages = 0;             ///< kPage frames in the window
  std::uint64_t bytes = 0;
  std::uint64_t early_closes = 0;      ///< server closed us before teardown
  std::uint64_t connect_failures = 0;
  std::uint64_t samples = 0;           ///< jitter samples measured
  double jitter_p50_us = 0.0;
  double jitter_p99_us = 0.0;
  double jitter_p999_us = 0.0;
  double jitter_max_us = 0.0;          ///< exact
  /// RSS growth of this process across the ramp divided by sessions — an
  /// estimate of per-session memory cost. When server and loadgen share
  /// the process (the bench harness) it covers both sides of each session.
  double rss_per_session_bytes = 0.0;
  std::uint64_t slo_violations = 0;    ///< 0 or 1 (p99 vs config threshold)

  // --- traced per-request journeys (LoadGenConfig::request_every) ---
  // The request_* population covers journeys completed off the broadcast
  // schedule (kPage); pull_* covers journeys completed by an on-demand
  // kPull airing. With patience_slots < 0 the pull side stays zero.
  std::uint64_t requests_sent = 0;
  std::uint64_t request_acks = 0;
  std::uint64_t request_completions = 0;  ///< broadcast-served completions
  std::uint64_t request_misses = 0;     ///< completed after the deadline
  double request_miss_rate = 0.0;       ///< misses / completions
  double request_delay_p50_us = 0.0;    ///< request sent -> page received
  double request_delay_p99_us = 0.0;
  double request_slack_p50_us = 0.0;    ///< deadline - completion (us)
  double request_slack_min_us = 0.0;

  // --- impatient-want / pull-channel population (patience_slots >= 0) ---
  std::uint64_t wants_issued = 0;
  std::uint64_t wants_broadcast = 0;  ///< page aired within patience
  std::uint64_t wants_pulled = 0;     ///< patience ran out -> kReq sent
  std::uint64_t pull_frames = 0;      ///< kPull frames received
  std::uint64_t pull_completions = 0; ///< pull-served completions
  std::uint64_t pull_misses = 0;
  double pull_miss_rate = 0.0;        ///< pull misses / pull completions
  double pull_delay_p50_us = 0.0;     ///< request sent -> kPull received
  double pull_delay_p99_us = 0.0;
  double pull_slack_min_us = 0.0;
  double mean_coalesced_waiters = 0.0;  ///< avg waiters per kPull frame
  std::uint64_t pull_slo_violations = 0;  ///< 0 or 1 (pull p99 vs config)

  /// Stable counters (session/close/violation counts) plus gauge-shaped
  /// measurements (jitter percentiles, RSS) — the gauges never gate.
  obs::MetricsSnapshot to_snapshot() const;
  /// MetricsSnapshot::to_json of to_snapshot(): mergeable and diffable.
  std::string to_json() const;
};

/// Runs one load-generation campaign: ramp, measure, tear down.
LoadGenReport run_loadgen(const LoadGenConfig& config);

/// Resident set size of this process in bytes, from /proc/self/statm (0 if
/// it cannot be read). run_loadgen's rss_per_session_bytes differences it.
std::uint64_t process_rss_bytes();

}  // namespace tcsa
