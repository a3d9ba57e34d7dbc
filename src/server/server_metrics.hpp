// server_metrics.hpp — the air server's metric handles, shared by the
// airing plane, the delivery shards and the request plane. Registered once
// per process on first use; the server touches them in its constructor,
// while still single-threaded, so the registry never grows under
// concurrently recording loops.
#pragma once

#include "obs/metrics.hpp"

namespace tcsa {

struct ServerMetrics {
  obs::MetricId sessions_opened;
  obs::MetricId sessions_closed;
  obs::MetricId frames_sent;
  obs::MetricId frames_encoded;
  obs::MetricId bytes_queued;
  obs::MetricId bytes_sent;
  obs::MetricId bytes_flushed;
  obs::MetricId writev_calls;
  obs::MetricId flush_eagain;
  obs::MetricId uring_enters;
  obs::MetricId uring_sqes;
  obs::MetricId uring_saved;
  obs::MetricId slots_aired;
  obs::MetricId evictions;
  obs::MetricId swaps;
  obs::MetricId swaps_rejected;
  obs::MetricId tunes;
  obs::MetricId reqs;
  obs::MetricId reqs_completed;
  obs::MetricId reqs_dropped;
  obs::MetricId reqs_pull_served;
  obs::MetricId pull_reqs;
  obs::MetricId pull_dups;
  obs::MetricId pull_unknown;
  obs::MetricId pull_airings;
  obs::MetricId pull_waiters_served;
  obs::MetricId pull_waiters_dropped;
  obs::MetricId lag_hist;
  /// Traced request service time, kReq receipt to the flush of the slot
  /// airing its page (us): broadcast-served, then kPull-served requests.
  obs::MetricId req_delay;
  obs::MetricId pull_delay;
  obs::MetricId sessions_gauge;
  obs::MetricId generation_gauge;
  obs::MetricId queue_depth_gauge;
  obs::MetricId loops_gauge;
  obs::MetricId pull_pending_pages_gauge;
  obs::MetricId pull_pending_waiters_gauge;
  obs::MetricId pull_oldest_wait_gauge;
  obs::MetricId accept_backoffs;
};

const ServerMetrics& server_metrics();

}  // namespace tcsa
