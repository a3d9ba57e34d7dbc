#include "obs/watchdog.hpp"

#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "util/stats.hpp"

namespace tcsa::obs {

LagPercentiles recent_lag_percentiles(const SlotTimeline& timeline) {
  std::vector<double> lags;
  for (const SlotRecord& rec : timeline.snapshot(kLagWindow))
    lags.push_back(static_cast<double>(rec.lag_us()));
  if (lags.empty()) return {};
  LagPercentiles out;
  out.p50_us = nearest_rank(lags, 0.50);
  out.p99_us = nearest_rank(lags, 0.99);
  out.p999_us = nearest_rank(lags, 0.999);
  return out;
}

SloWatchdog::SloWatchdog(double breach_us,
                         std::function<void(const std::string&)> on_warn)
    : breach_us_(breach_us), on_warn_(std::move(on_warn)) {
  if (!on_warn_) {
    on_warn_ = [](const std::string& msg) {
      std::fprintf(stderr, "[warn] %s\n", msg.c_str());
    };
  }
  breach_counter_ = register_counter(
      "tcsa_slo_breach_total", "Slots aired later than the configured SLO");
}

void SloWatchdog::observe(double lag_us, std::int64_t now_us) {
  if (breach_us_ <= 0.0 || lag_us <= breach_us_) return;
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

}  // namespace tcsa::obs
