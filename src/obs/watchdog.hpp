// watchdog.hpp — slot-lag SLO watchdog for the airing loop, and the recent
// lag percentiles /healthz reports.
//
// The airing tick records every slot in the obs::SlotTimeline and then
// calls observe() with its lag. Lags above the SLO threshold bump
// tcsa_slo_breach_total (an *_always counter: breaches must stay countable
// even with recording disabled) and fire a warning, at most one per
// kWarnIntervalUs. The timeline is the one store of per-slot lags: the
// recent percentiles are read off it on demand (recent_lag_percentiles),
// so the airing loop never copies it.
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

/// Slots the recent lag percentiles cover: the newest 256.
inline constexpr std::size_t kLagWindow = 256;

/// Nearest-rank lag percentiles, in microseconds.
struct LagPercentiles {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// The nearest-rank p50/p99/p999 of the lags of `timeline`'s newest
/// kLagWindow records (all of them while fewer are recorded; zeros when
/// none).
LagPercentiles recent_lag_percentiles(const SlotTimeline& timeline);

class SloWatchdog {
 public:
  static constexpr std::int64_t kWarnIntervalUs = 1'000'000;

  /// `breach_us` is the SLO threshold (<= 0 disables breach checks).
  /// `on_warn` is the warning sink, stderr when empty; the obs library
  /// cannot use TCSA_LOG (util links obs, not the reverse), so the server
  /// injects its logger.
  explicit SloWatchdog(double breach_us = 0.0,
                       std::function<void(const std::string&)> on_warn = {});

  /// Checks one slot's airing lag against the SLO. `now_us` rate-limits
  /// warnings (pass the slot clock's now).
  void observe(double lag_us, std::int64_t now_us);

  std::uint64_t breaches() const noexcept { return breaches_; }

 private:
  double breach_us_;
  std::function<void(const std::string&)> on_warn_;
  std::uint64_t breaches_ = 0;
  std::int64_t last_warn_us_ = 0;
  bool warned_ever_ = false;
  std::uint32_t breach_counter_ = 0;  ///< registry id
};

}  // namespace tcsa::obs
