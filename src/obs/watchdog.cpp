#include "obs/watchdog.hpp"

#include <cstdio>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace tcsa::obs {

SloWatchdog::SloWatchdog(SloWatchdogConfig config)
    : config_(std::move(config)) {
  TCSA_REQUIRE(config_.window >= 1, "watchdog: window must be >= 1");
  TCSA_REQUIRE(config_.decay > 0.0 && config_.decay <= 1.0,
               "watchdog: decay must be in (0, 1]");
  window_.reserve(config_.window);
  if (!config_.on_warn) {
    config_.on_warn = [](const std::string& msg) {
      std::fprintf(stderr, "[warn] %s\n", msg.c_str());
    };
  }
  gauge_p50_ = register_gauge("tcsa_slot_lag_p50_us",
                              "Rolling-window median slot airing lag");
  gauge_p99_ = register_gauge("tcsa_slot_lag_p99_us",
                              "Rolling-window p99 slot airing lag");
  gauge_p999_ = register_gauge("tcsa_slot_lag_p999_us",
                               "Rolling-window p999 slot airing lag");
  breach_counter_ = register_counter(
      "tcsa_slo_breach_total", "Slots aired later than the configured SLO");
}

void SloWatchdog::observe(double lag_us, std::int64_t now_us) {
  window_.push_back(lag_us);
  if (config_.breach_us > 0.0 && lag_us > config_.breach_us) {
    breaches_.fetch_add(1, std::memory_order_relaxed);
    counter_add_always(breach_counter_);
    if (!warned_ever_ || now_us - last_warn_us_ >= config_.warn_interval_us) {
      warned_ever_ = true;
      last_warn_us_ = now_us;
      config_.on_warn("slot SLO breach: lag " + std::to_string(lag_us) +
                      " us > " + std::to_string(config_.breach_us) +
                      " us (breach #" + std::to_string(breaches()) + ")");
    }
  }
  if (window_.size() >= config_.window) close_window();
}

void SloWatchdog::close_window() {
  const double fresh50 = nearest_rank(window_, 0.50);
  const double fresh99 = nearest_rank(window_, 0.99);
  const double fresh999 = nearest_rank(window_, 0.999);
  const bool first = windows_.load(std::memory_order_relaxed) == 0;
  const double w = first ? 1.0 : config_.decay;
  const auto blend = [&](std::atomic<double>& cell, double fresh) {
    cell.store(w * fresh + (1.0 - w) * load(cell), std::memory_order_relaxed);
  };
  blend(p50_, fresh50);
  blend(p99_, fresh99);
  blend(p999_, fresh999);
  windows_.fetch_add(1, std::memory_order_relaxed);
  // *_always: live SLO gauges must stay visible on /metrics even when the
  // hot-path recording switch is off.
  gauge_set_always(gauge_p50_, p50_us());
  gauge_set_always(gauge_p99_, p99_us());
  gauge_set_always(gauge_p999_, p999_us());
  window_.clear();
}

}  // namespace tcsa::obs
