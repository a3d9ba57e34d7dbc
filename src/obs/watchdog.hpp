// watchdog.hpp — slot-lag SLO watchdog for the airing loop.
//
// The airing tick records every slot in the obs::SlotTimeline and then
// calls observe(). The timeline is the one store of per-slot lags: every
// kWindow recorded slots the watchdog reads the newest kWindow records back
// out of it and publishes their nearest-rank p50/p99/p999 to gauges
// (tcsa_slot_lag_p50_us, ..p99.., ..p999..), so a scrape shows the recent
// past rather than process-lifetime averages. Lags above the SLO threshold
// bump tcsa_slo_breach_total (an *_always counter: breaches must stay
// countable even with recording disabled) and fire a warning, at most one
// per kWarnIntervalUs.
//
// Threading: single-threaded. observe() runs on the airing loop (loop 0),
// and so does every reader (the admin endpoint's /healthz handler).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace tcsa::obs {

class SlotTimeline;

class SloWatchdog {
 public:
  static constexpr std::size_t kWindow = 256;  ///< slots per percentile window
  static constexpr std::int64_t kWarnIntervalUs = 1'000'000;

  /// `breach_us` is the SLO threshold (<= 0 disables breach checks).
  /// `on_warn` is the warning sink, stderr when empty; the obs library
  /// cannot use TCSA_LOG (util links obs, not the reverse), so the server
  /// injects its logger.
  explicit SloWatchdog(double breach_us = 0.0,
                       std::function<void(const std::string&)> on_warn = {});

  /// Checks one slot's airing lag against the SLO; call it right after
  /// that slot's timeline.record(). `now_us` rate-limits warnings (pass the
  /// slot clock's now). When the timeline's record count reaches a multiple
  /// of kWindow, publishes the percentiles of its newest kWindow records.
  void observe(const SlotTimeline& timeline, double lag_us,
               std::int64_t now_us);

  // Percentiles (microseconds) of the last closed window; 0 before one.
  double p50_us() const noexcept { return p50_; }
  double p99_us() const noexcept { return p99_; }
  double p999_us() const noexcept { return p999_; }

  std::uint64_t breaches() const noexcept { return breaches_; }
  std::uint64_t windows() const noexcept { return windows_; }

 private:
  void close_window(const SlotTimeline& timeline);

  double breach_us_;
  std::function<void(const std::string&)> on_warn_;
  double p50_ = 0.0;
  double p99_ = 0.0;
  double p999_ = 0.0;
  std::uint64_t breaches_ = 0;
  std::uint64_t windows_ = 0;
  std::int64_t last_warn_us_ = 0;
  bool warned_ever_ = false;
  std::uint32_t gauge_p50_ = 0;  ///< registry ids
  std::uint32_t gauge_p99_ = 0;
  std::uint32_t gauge_p999_ = 0;
  std::uint32_t breach_counter_ = 0;
};

}  // namespace tcsa::obs
