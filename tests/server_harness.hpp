// server_harness.hpp — shared fixtures for the loopback AirServer suites:
// a server running on a background thread, and a scoped view of the obs
// registry's counters (the server's one counter source).
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "server/air_server.hpp"
#include "server/tune_client.hpp"

namespace tcsa {

/// Runs an AirServer on a background thread; stops and joins on scope exit.
class ServerHarness {
 public:
  ServerHarness(Workload workload, AirServerConfig config)
      : server_(std::move(workload), config),
        thread_([this] { server_.run(); }) {}
  ~ServerHarness() {
    server_.stop();
    if (thread_.joinable()) thread_.join();
  }
  AirServer& server() { return server_; }
  TuneClient::Options client_options(std::uint64_t mask) const {
    TuneClient::Options options;
    options.port = server_.port();
    options.channel_mask = mask;
    return options;
  }

 private:
  AirServer server_;
  std::thread thread_;
};

/// Turns metric recording on and snapshots the registry as the base;
/// restores the previous enable state on scope exit. Declare it before the
/// ServerHarness it observes so recording covers the server's whole run.
class MetricsDelta {
 public:
  MetricsDelta() : was_enabled_(obs::enabled()) {
    obs::set_enabled(true);
    base_ = obs::snapshot();
  }
  ~MetricsDelta() { obs::set_enabled(was_enabled_); }
  MetricsDelta(const MetricsDelta&) = delete;
  MetricsDelta& operator=(const MetricsDelta&) = delete;

  /// Everything recorded since construction (safe while the server runs).
  obs::MetricsSnapshot delta() const { return obs::snapshot().minus(base_); }
  /// Live growth of one counter since construction; 0 when absent.
  std::uint64_t counter(const std::string& name) const {
    return delta().counter_value(name);
  }

 private:
  bool was_enabled_;
  obs::MetricsSnapshot base_;
};

}  // namespace tcsa
