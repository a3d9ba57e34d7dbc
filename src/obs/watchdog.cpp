#include "obs/watchdog.hpp"

#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "util/stats.hpp"

namespace tcsa::obs {

SloWatchdog::SloWatchdog(double breach_us,
                         std::function<void(const std::string&)> on_warn)
    : breach_us_(breach_us), on_warn_(std::move(on_warn)) {
  if (!on_warn_) {
    on_warn_ = [](const std::string& msg) {
      std::fprintf(stderr, "[warn] %s\n", msg.c_str());
    };
  }
  gauge_p50_ = register_gauge("tcsa_slot_lag_p50_us",
                              "Median slot airing lag over the last 256 slots");
  gauge_p99_ = register_gauge("tcsa_slot_lag_p99_us",
                              "p99 slot airing lag over the last 256 slots");
  gauge_p999_ = register_gauge("tcsa_slot_lag_p999_us",
                               "p999 slot airing lag over the last 256 slots");
  breach_counter_ = register_counter(
      "tcsa_slo_breach_total", "Slots aired later than the configured SLO");
}

void SloWatchdog::observe(const SlotTimeline& timeline, double lag_us,
                          std::int64_t now_us) {
  if (breach_us_ > 0.0 && lag_us > breach_us_) {
    ++breaches_;
    counter_add_always(breach_counter_);
    if (!warned_ever_ || now_us - last_warn_us_ >= kWarnIntervalUs) {
      warned_ever_ = true;
      last_warn_us_ = now_us;
      on_warn_("slot SLO breach: lag " + std::to_string(lag_us) + " us > " +
               std::to_string(breach_us_) + " us (breach #" +
               std::to_string(breaches_) + ")");
    }
  }
  const std::uint64_t recorded = timeline.recorded();
  if (recorded != 0 && recorded % kWindow == 0) close_window(timeline);
}

void SloWatchdog::close_window(const SlotTimeline& timeline) {
  std::vector<double> lags;
  lags.reserve(kWindow);
  for (const SlotRecord& rec : timeline.snapshot(kWindow))
    lags.push_back(static_cast<double>(rec.lag_us()));
  p50_ = nearest_rank(lags, 0.50);
  p99_ = nearest_rank(lags, 0.99);
  p999_ = nearest_rank(lags, 0.999);
  ++windows_;
  // *_always: live SLO gauges must stay visible on /metrics even when the
  // hot-path recording switch is off.
  gauge_set_always(gauge_p50_, p50_);
  gauge_set_always(gauge_p99_, p99_);
  gauge_set_always(gauge_p999_, p999_);
}

}  // namespace tcsa::obs
