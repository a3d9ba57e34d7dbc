// watchdog.hpp — rolling slot-lag SLO watchdog for the airing loop.
//
// The airing tick feeds every slot's lag (actual − scheduled air time) into
// a fixed window; when the window fills, the watchdog computes p50/p99/p999
// over it, blends them into decaying gauges (tcsa_slot_lag_p50_us, ..p99..,
// ..p999..) so a scrape always shows the recent past rather than
// process-lifetime averages, and starts the next window. Lags above the SLO
// threshold bump tcsa_slo_breach_total (an *_always counter: breaches must
// stay countable even with recording disabled) and fire a rate-limited
// warning.
//
// Threading: observe() is called only by the airing loop (loop 0). The
// percentile accessors read plain doubles published through relaxed atomics
// so the admin endpoint's /healthz handler — same loop — and tests can read
// them without ceremony.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tcsa::obs {

struct SloWatchdogConfig {
  std::size_t window = 256;  ///< samples per percentile window (>= 1)
  double breach_us = 0.0;    ///< SLO threshold; <= 0 disables breach checks
  double decay = 0.5;        ///< weight of the freshest window in the gauges
  std::int64_t warn_interval_us = 1'000'000;  ///< min spacing of warnings
  /// Warning sink; defaults to stderr. The obs library cannot use TCSA_LOG
  /// (util links obs, not the reverse), so the server injects its logger.
  std::function<void(const std::string&)> on_warn;
};

class SloWatchdog {
 public:
  explicit SloWatchdog(SloWatchdogConfig config);

  /// Feed one slot's airing lag. Single-threaded (the airing loop);
  /// `now_us` rate-limits warnings (pass the slot clock's now).
  void observe(double lag_us, std::int64_t now_us);

  // Decayed window percentiles (microseconds); 0 until a window completes.
  double p50_us() const noexcept { return load(p50_); }
  double p99_us() const noexcept { return load(p99_); }
  double p999_us() const noexcept { return load(p999_); }

  std::uint64_t breaches() const noexcept {
    return breaches_.load(std::memory_order_relaxed);
  }
  std::uint64_t windows() const noexcept {
    return windows_.load(std::memory_order_relaxed);
  }

 private:
  static double load(const std::atomic<double>& cell) noexcept {
    return cell.load(std::memory_order_relaxed);
  }
  void close_window();

  SloWatchdogConfig config_;
  std::vector<double> window_;  ///< scratch; reused across windows
  std::atomic<double> p50_{0.0};
  std::atomic<double> p99_{0.0};
  std::atomic<double> p999_{0.0};
  std::atomic<std::uint64_t> breaches_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::int64_t last_warn_us_ = 0;
  bool warned_ever_ = false;
  std::uint32_t gauge_p50_ = 0;  ///< registry ids
  std::uint32_t gauge_p99_ = 0;
  std::uint32_t gauge_p999_ = 0;
  std::uint32_t breach_counter_ = 0;
};

}  // namespace tcsa::obs
