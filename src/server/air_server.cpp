#include "server/air_server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/channel_bound.hpp"
#include "model/appearance_index.hpp"
#include "obs/artifact.hpp"
#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "obs/reqtrace.hpp"
#include "obs/trace.hpp"
#include "online/adaptive.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"

namespace tcsa {
namespace {

struct ServerMetrics {
  obs::MetricId sessions_opened;
  obs::MetricId sessions_closed;
  obs::MetricId frames_sent;
  obs::MetricId frames_encoded;
  obs::MetricId frame_cache_hits;
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
  obs::MetricId sessions_gauge;
  obs::MetricId generation_gauge;
  obs::MetricId queue_depth_gauge;
  obs::MetricId loops_gauge;
  obs::MetricId pull_pending_pages_gauge;
  obs::MetricId pull_pending_waiters_gauge;
  obs::MetricId pull_oldest_wait_gauge;
};

const ServerMetrics& server_metrics() {
  static const ServerMetrics metrics{
      obs::register_counter("tcsa_server_sessions_opened_total",
                            "Client sessions accepted by the air server"),
      obs::register_counter("tcsa_server_sessions_closed_total",
                            "Client sessions closed (any reason)"),
      obs::register_counter("tcsa_server_frames_sent_total",
                            "Page/control frames queued to sessions"),
      obs::register_counter("tcsa_server_frames_encoded_total",
                            "Frame bodies encoded (shared by reference "
                            "across subscribers; cache slot-patches do "
                            "not count)"),
      obs::register_counter("tcsa_server_frame_cache_hits_total",
                            "Page frames aired by patching the cached "
                            "buffer's slot word instead of re-encoding"),
      obs::register_counter("tcsa_server_bytes_queued_total",
                            "Wire bytes queued to session egress queues"),
      obs::register_counter("tcsa_server_bytes_sent_total",
                            "Wire bytes the kernel accepted "
                            "(send/sendmsg return values)"),
      obs::register_counter("tcsa_server_bytes_flushed_total",
                            "Wire bytes of frames fully retired from "
                            "session egress queues"),
      obs::register_counter("tcsa_server_writev_calls_total",
                            "Productive vectored flush syscalls (moved "
                            "bytes; would-block probes are counted in "
                            "flush_eagain instead)"),
      obs::register_counter("tcsa_server_flush_eagain_total",
                            "Flush attempts the kernel refused outright "
                            "(EAGAIN — syscall overhead that moved no "
                            "bytes)"),
      obs::register_counter("tcsa_server_uring_enter_total",
                            "io_uring_enter syscalls submitting batched "
                            "slot-fanout flushes"),
      obs::register_counter("tcsa_server_uring_sqe_batched_total",
                            "sendmsg SQEs submitted through batched "
                            "flushes (one per dirty session per round)"),
      obs::register_counter("tcsa_server_uring_syscalls_saved_total",
                            "Syscalls the batched flush avoided vs the "
                            "one-sendmsg-per-session path (SQEs minus "
                            "enters)"),
      obs::register_counter("tcsa_server_slots_aired_total",
                            "Broadcast slots aired"),
      obs::register_counter("tcsa_server_evictions_total",
                            "Sessions evicted for exceeding the write "
                            "buffer cap (slow clients)"),
      obs::register_counter("tcsa_server_swaps_total",
                            "Hot program swaps activated"),
      obs::register_counter("tcsa_server_swap_rejected_total",
                            "Hot swap requests rejected"),
      obs::register_counter("tcsa_server_tunes_total",
                            "TUNE (subscription) frames processed"),
      obs::register_counter("tcsa_server_reqs_total",
                            "Traced page requests (kReq) received"),
      obs::register_counter("tcsa_server_reqs_completed_total",
                            "Traced requests whose page aired and flushed "
                            "to the requesting session"),
      obs::register_counter("tcsa_server_reqs_dropped_total",
                            "Traced requests dropped from a session's "
                            "pending set (per-session cap exceeded)"),
      obs::register_counter("tcsa_server_reqs_pull_served_total",
                            "Traced requests resolved by an on-demand kPull "
                            "airing (the broadcast-served complement is "
                            "reqs_completed minus this)"),
      obs::register_counter("tcsa_server_pull_reqs_total",
                            "Page demands entering the pull demand table"),
      obs::register_counter("tcsa_server_pull_reqs_duplicate_total",
                            "Demands from a session already waiting for the "
                            "same page (coalesced away, not re-added)"),
      obs::register_counter("tcsa_server_pull_unknown_page_total",
                            "Demands for pages outside the on-air workload "
                            "(acked but never aired)"),
      obs::register_counter("tcsa_server_pull_airings_total",
                            "On-demand kPull airings on the pull channel "
                            "budget"),
      obs::register_counter("tcsa_server_pull_waiters_served_total",
                            "Coalesced waiters satisfied across all pull "
                            "airings (divided by airings = mean coalescing "
                            "factor)"),
      obs::register_counter("tcsa_server_pull_waiters_dropped_total",
                            "Pending pull waiters dropped before airing "
                            "(requester disconnect or a swap shrinking the "
                            "page universe)"),
      obs::register_histogram(
          "tcsa_server_slot_lag_us",
          "How late each slot aired vs its drift-free deadline (us)",
          {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000}),
      obs::register_gauge("tcsa_server_sessions",
                          "Currently connected sessions"),
      obs::register_gauge("tcsa_server_generation",
                          "Id of the program generation on air"),
      obs::register_gauge("tcsa_server_queue_depth_bytes",
                          "Bytes queued across all session egress queues "
                          "after the last slot's flush"),
      obs::register_gauge("tcsa_server_loops",
                          "Per-core I/O loops the server shards sessions "
                          "across"),
      obs::register_gauge("tcsa_server_pull_pending_pages",
                          "Distinct pages with pending pull demand"),
      obs::register_gauge("tcsa_server_pull_pending_waiters",
                          "Coalesced waiters pending across all pages"),
      obs::register_gauge("tcsa_server_pull_oldest_wait_slots",
                          "Age (slots) of the oldest pending pull demand"),
  };
  return metrics;
}

/// Server-side per-request service time (kReq receipt -> egress flush of
/// the airing slot), with p50/p99/p999/p9999 gauges recomputed every 64
/// completions (one fixed-size bucket scan, ~3 us, whatever the count).
obs::ReqPercentiles& server_req_delay() {
  static obs::ReqPercentiles percentiles(
      "tcsa_server_req_delay", "us",
      "Traced request service time from kReq receipt to the flush of the "
      "slot airing its page",
      {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000,
       1000000});
  return percentiles;
}

/// Same service-time lens restricted to requests the pull plane resolved:
/// the on-demand tail the broadcast alone would have blown.
obs::ReqPercentiles& server_pull_delay() {
  static obs::ReqPercentiles percentiles(
      "tcsa_server_pull_delay", "us",
      "Traced request service time for requests resolved by a kPull airing "
      "(kReq receipt to the flush of the pull slot)",
      {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000,
       1000000});
  return percentiles;
}

void note_session_count(std::size_t n) {
  obs::gauge_set(server_metrics().sessions_gauge, static_cast<double>(n));
}

void note_generation(std::uint32_t id) {
  obs::gauge_set(server_metrics().generation_gauge, static_cast<double>(id));
}

/// Next completion of `page` strictly after cycle position `from`, as a
/// wait in slots (integral: appearances live on integer completion times).
SlotCount integral_wait_after(const AppearanceIndex& index, PageId page,
                              SlotCount from) {
  return static_cast<SlotCount>(
      std::llround(index.wait_after(page, static_cast<double>(from))));
}

}  // namespace

SwapPlan plan_swap_seam(const Workload& current_workload,
                        const BroadcastProgram& current_program,
                        SlotCount current_offset,
                        const Workload& next_workload,
                        const BroadcastProgram& next_program) {
  const AppearanceIndex old_index(current_program,
                                  current_workload.total_pages());
  const AppearanceIndex new_index(next_program, next_workload.total_pages());
  const PageId common = static_cast<PageId>(
      std::min(current_workload.total_pages(), next_workload.total_pages()));

  // Outstanding promise per common page: the wait the continued old cycle
  // would have delivered from the boundary.
  std::vector<PageId> pages;
  std::vector<SlotCount> promised;
  for (PageId p = 0; p < common; ++p) {
    if (old_index.count(p) == 0 || new_index.count(p) == 0) continue;
    pages.push_back(p);
    promised.push_back(integral_wait_after(old_index, p, current_offset));
  }
  if (pages.empty()) return SwapPlan{0, 0};

  const SlotCount cycle = next_program.cycle_length();
  SwapPlan best{0, std::numeric_limits<SlotCount>::max()};
  for (SlotCount r = 0; r < cycle; ++r) {
    SlotCount lateness = std::numeric_limits<SlotCount>::min();
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const SlotCount wait = integral_wait_after(new_index, pages[i], r);
      lateness = std::max(lateness, wait - promised[i]);
      if (lateness >= best.seam_lateness) break;  // cannot improve
    }
    if (lateness < best.seam_lateness) best = SwapPlan{r, lateness};
    if (best.seam_lateness <= 0) break;  // smallest seam-clean rotation wins
  }
  return best;
}

namespace {

/// Self-pipe write end for the signal handlers: the only async-signal-safe
/// way back into the event loop is write(2) on a pre-opened fd.
std::atomic<int> g_signal_pipe_wr{-1};

extern "C" void tcsa_on_signal(int) {
  const int fd = g_signal_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

/// Submission slots per shard ring: one SQE per dirty session per round,
/// so a 2000-session shard drains in ceil(2000/256) = 8 enters — and the
/// SQE array stays a page-scale mapping per loop.
constexpr unsigned kUringEntries = 256;

/// Gathered iovecs per session per SQE. Slot fan-out queues are a handful
/// of frames deep; a backlogged session finishes in later rounds (or on
/// its own EPOLLOUT wakeup), keeping the per-batch iovec arena to
/// sessions x 32 x 16 B instead of sessions x IOV_MAX.
constexpr std::size_t kUringIovPerTarget = 32;

obs::SloWatchdogConfig watchdog_config(const AirServerConfig& config) {
  obs::SloWatchdogConfig wd;
  wd.window = std::max<std::size_t>(config.slo_window, 1);
  wd.breach_us = config.slo_breach_us;
  wd.on_warn = [](const std::string& msg) {
    TCSA_LOG(kWarn) << "air server: " << msg;
  };
  return wd;
}

}  // namespace

AirServer::AirServer(Workload workload, AirServerConfig config)
    : config_(std::move(config)),
      timeline_(std::max<std::size_t>(config_.timeline_capacity, 1)),
      watchdog_(watchdog_config(config_)) {
  channels_ = config_.channels > 0 ? config_.channels
                                   : min_channels(workload);
  TCSA_REQUIRE(channels_ >= 1 && channels_ <= 64,
               "AirServer: channel count must be in [1, 64] (subscription "
               "masks are 64-bit)");
  TCSA_REQUIRE(config_.slot_us >= 1, "AirServer: slot_us must be >= 1");
  loop_count_ = config_.loops;
  TCSA_REQUIRE(loop_count_ >= 1 && loop_count_ <= 64,
               "AirServer: loops must be in [1, 64]");
  TCSA_REQUIRE(config_.pull_channels <= 16,
               "AirServer: pull_channels must be in [0, 16]");

  const ScheduleOutcome outcome =
      config_.auto_method ? choose_schedule(workload, channels_)
                          : make_schedule(config_.method, workload, channels_);
  const ValidityReport report = validate_program(outcome.program, workload);
  if (!report.valid) {
    TCSA_LOG(kWarn) << "air server: initial program is invalid (worst "
                       "lateness "
                    << report.worst_lateness
                    << " slots); clients will observe deadline misses";
  }

  current_ = std::make_unique<Generation>(Generation{
      1, std::move(workload), outcome.program, 0, 0, std::string()});
  current_->workload_binary = workload_to_binary(current_->workload);
  generation_id_.store(1, std::memory_order_relaxed);
  note_generation(1);
  // Touch the lazily-constructed request-delay percentiles NOW, while the
  // server is still single-threaded: their constructors register metrics,
  // and the registry's definition table must not grow while worker loops
  // are concurrently bumping counters.
  server_req_delay();
  server_pull_delay();
  if (config_.pull_channels > 0)
    pull_estimator_ = std::make_unique<ToleranceEstimator>(
        current_->workload.group_count());
  publish_hello(*current_);

  group_ = std::make_unique<net::LoopGroup>(loop_count_);
  shards_.reserve(loop_count_);
  for (std::size_t i = 0; i < loop_count_; ++i) {
    auto shard = std::make_unique<LoopShard>();
    shard->index = i;
    shard->loop = &group_->loop(i);
    shards_.push_back(std::move(shard));
  }

  // Egress backend resolution — the runtime rung of the fallback ladder.
  // kOn demands the ring (a probe or setup failure is a config error);
  // kAuto quietly keeps the sendmsg path when the kernel says no.
  if (config_.uring != UringMode::kOff) {
    const bool available = net::UringFlusher::supported();
    if (!available && config_.uring == UringMode::kOn)
      throw std::runtime_error(
          "AirServer: io_uring egress requested (--uring on) but "
          "unavailable on this kernel/build (probe failed)");
    if (available) {
      try {
        for (auto& shard : shards_)
          shard->uring = std::make_unique<net::UringFlusher>(kUringEntries);
        uring_active_ = true;
        TCSA_LOG(kInfo) << "air server: io_uring egress on (" << loop_count_
                        << " ring(s) x " << shards_[0]->uring->capacity()
                        << " entries)";
      } catch (const std::exception& e) {
        if (config_.uring == UringMode::kOn) throw;
        for (auto& shard : shards_) shard->uring.reset();
        TCSA_LOG(kWarn) << "air server: io_uring setup failed (" << e.what()
                        << "); falling back to sendmsg flush";
      }
    } else if (config_.uring == UringMode::kAuto) {
      TCSA_LOG(kInfo)
          << "air server: io_uring unavailable, using sendmsg flush";
    }
  }
  if (loop_count_ == 1) {
    shards_[0]->listener = net::listen_tcp(config_.bind_address, config_.port);
    port_ = net::local_port(shards_[0]->listener.get());
  } else {
    // Shard 0 resolves the (possibly ephemeral) port inside the reuseport
    // group; shards 1..K-1 join it at the concrete port. Binding every
    // shard at port 0 would scatter them across K different ports.
    shards_[0]->listener =
        net::listen_reuseport(config_.bind_address, config_.port);
    port_ = net::local_port(shards_[0]->listener.get());
    for (std::size_t i = 1; i < loop_count_; ++i)
      shards_[i]->listener = net::listen_reuseport(config_.bind_address, port_);
  }

  loop_queue_gauges_.reserve(loop_count_);
  for (std::size_t i = 0; i < loop_count_; ++i)
    loop_queue_gauges_.push_back(obs::register_gauge(
        "tcsa_server_loop" + std::to_string(i) + "_queue_depth_bytes",
        "Bytes queued across loop " + std::to_string(i) +
            "'s session egress queues after its last slot flush"));
  uptime_gauge_ = obs::register_gauge(
      "tcsa_uptime_seconds", "Seconds since the server went on air");
  build_info_gauge_ = obs::register_gauge(
      "tcsa_build_info",
      "Build/runtime provenance (value is always 1; the labels carry it)",
      obs::format_label("git_describe", obs::build_git_describe()) + ',' +
          obs::format_label("obs", obs::enabled() ? "on" : "off") + ',' +
          obs::format_label("loops", std::to_string(loop_count_)));
  obs::gauge_set_always(build_info_gauge_, 1.0);

  if (config_.admin_port >= 0) {
    admin_ = std::make_unique<net::HttpAdmin>(
        group_->loop(0), config_.admin_bind,
        static_cast<std::uint16_t>(config_.admin_port));
    setup_admin_routes();
  }
}

AirServer::~AirServer() {
  if (swap_worker_.joinable()) swap_worker_.join();
}

void AirServer::publish_hello(const Generation& gen) {
  // Built outside the lock: O(pages), and only a handful of generations
  // ever go on air.
  auto expected = std::make_shared<std::vector<SlotCount>>();
  expected->reserve(static_cast<std::size_t>(gen.workload.total_pages()));
  for (PageId p = 0; p < gen.workload.total_pages(); ++p)
    expected->push_back(gen.workload.expected_time_of(p));
  const std::lock_guard<std::mutex> lock(hello_mutex_);
  hello_.id = gen.id;
  hello_.channels = static_cast<std::uint32_t>(gen.program.channels());
  hello_.cycle = static_cast<std::uint32_t>(gen.program.cycle_length());
  hello_.workload_binary = gen.workload_binary;
  hello_.expected_times = std::move(expected);
}

std::string AirServer::hello_payload_now(std::uint32_t* gen_out) const {
  // next_slot_ is loop-0-only; slots_aired_ tracks it exactly (both advance
  // together at the end of air_slot), so any loop can stamp the slot.
  const std::uint64_t next_slot = slots_aired_.load(std::memory_order_acquire);
  const std::lock_guard<std::mutex> lock(hello_mutex_);
  if (gen_out) *gen_out = hello_.id;
  std::string payload;
  wire_put_u32(payload, hello_.id);
  wire_put_u32(payload, config_.slot_us);
  wire_put_u32(payload, hello_.channels);
  wire_put_u32(payload, hello_.cycle);
  wire_put_u64(payload, next_slot);
  payload.append(hello_.workload_binary);
  return payload;
}

std::size_t AirServer::total_sessions() const {
  std::size_t total = 0;
  for (const auto& shard : shards_)
    total += shard->session_count.load(std::memory_order_acquire);
  return total;
}

std::vector<std::size_t> AirServer::sessions_per_loop() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_)
    counts.push_back(shard->session_count.load(std::memory_order_acquire));
  return counts;
}

void AirServer::run() {
  if (!config_.flight_out.empty()) {
    obs::FlightRecorder& flight = obs::FlightRecorder::instance();
    if (flight.open(config_.flight_out,
                    std::max<std::uint32_t>(config_.flight_capacity, 1))) {
      obs::flight_install_signal_handlers();
      TCSA_LOG(kInfo) << "air server: flight recorder on ("
                      << config_.flight_out << ", "
                      << config_.flight_capacity << " events)";
    } else {
      TCSA_LOG(kWarn) << "air server: " << flight.error();
    }
  }
  clock_ = std::make_unique<net::SlotClock>(config_.slot_us);
  on_air_epoch_us_ = clock_->now_us();
  obs::gauge_set(server_metrics().loops_gauge,
                 static_cast<double>(loop_count_));
  LoopShard& shard0 = *shards_[0];
  shard0.loop->add(shard0.listener.get(), EPOLLIN,
                   [this, &shard0](std::uint32_t) { on_accept(shard0); });
  shard0.loop->add(timer_.fd(), EPOLLIN, [this](std::uint32_t) { on_timer(); });
  if (shard0.uring)
    shard0.loop->add(shard0.uring->event_fd(), EPOLLIN,
                     [this, &shard0](std::uint32_t) { harvest_uring(shard0); });
  // Admin goes live only now: its handlers read loop-0 state (clock_,
  // next_slot_) that exists from here on, and loop 0 first polls below.
  if (admin_) admin_->start();
  if (config_.install_signal_handlers) install_signal_pipe();
  timer_.arm_after_us(0);
  running_ = true;
  group_->start_workers([this](std::size_t index) { worker_body(index); });

  std::exception_ptr error;
  try {
    while (running_) shard0.loop->poll(-1);
  } catch (...) {
    error = std::current_exception();
  }

  // Shutdown fan-out: each worker loop drains and closes its own sessions
  // on its own thread (session state never crosses loops, even dying).
  for (std::size_t i = 1; i < loop_count_; ++i)
    shards_[i]->loop->post([this, i] { shards_[i]->running = false; });
  drain_and_close(shard0);
  if (admin_) admin_->shutdown();
  remove_signal_pipe();
  shard0.loop->remove(timer_.fd());
  group_->join_workers();  // rethrows the first worker failure, if any
  if (swap_worker_.joinable()) swap_worker_.join();
  // Clean exit: seal and sync the black box (a killed process skips this
  // and the MAP_SHARED ring survives unsealed — that is the design).
  if (!config_.flight_out.empty()) obs::FlightRecorder::instance().close();
  if (error) std::rethrow_exception(error);
}

void AirServer::install_signal_pipe() {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    TCSA_LOG(kWarn) << "air server: pipe2 failed (" << std::strerror(errno)
                    << "); signals will not shut down cleanly";
    return;
  }
  signal_rd_ = net::Fd(fds[0]);
  signal_wr_ = net::Fd(fds[1]);
  g_signal_pipe_wr.store(signal_wr_.get(), std::memory_order_relaxed);
  struct sigaction action = {};
  action.sa_handler = &tcsa_on_signal;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  shards_[0]->loop->add(signal_rd_.get(), EPOLLIN, [this](std::uint32_t) {
    char drain[64];
    while (::read(signal_rd_.get(), drain, sizeof drain) > 0) {
    }
    if (running_) {
      TCSA_LOG(kInfo) << "air server: signal received, going off air";
      running_ = false;
    }
  });
}

void AirServer::remove_signal_pipe() {
  if (!signal_rd_.valid()) return;
  g_signal_pipe_wr.store(-1, std::memory_order_relaxed);
  struct sigaction action = {};
  action.sa_handler = SIG_DFL;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  shards_[0]->loop->remove(signal_rd_.get());
  signal_rd_.reset();
  signal_wr_.reset();
}

void AirServer::setup_admin_routes() {
  // /metrics + /metrics.json: whole-registry scrapes.
  admin_->route("/metrics", [](std::string_view) -> net::HttpResponse {
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            obs::snapshot().to_prometheus()};
  });
  admin_->route("/metrics.json", [](std::string_view) -> net::HttpResponse {
    return {200, "application/json", obs::snapshot().to_json()};
  });
  // /healthz reads server state only: liveness must not depend on the
  // metrics registry recording.
  admin_->route("/healthz", [this](std::string_view) -> net::HttpResponse {
    if (clock_ == nullptr)
      return {503, "application/json", "{\"status\": \"off air\"}\n"};
    return {200, "application/json", healthz_json()};
  });
  // /slots dumps the airing timeline; ?max=N trims to the newest N.
  admin_->route("/slots", [this](std::string_view query) -> net::HttpResponse {
    std::size_t max_records = 0;
    constexpr std::string_view kMax = "max=";
    if (const std::size_t pos = query.find(kMax);
        pos != std::string_view::npos) {
      max_records = static_cast<std::size_t>(
          std::atoll(std::string(query.substr(pos + kMax.size())).c_str()));
    }
    return {200, "application/json", timeline_.to_json(max_records)};
  });
}

std::string AirServer::healthz_json() const {
  // Loop-0 thread: next_slot_ and clock_ are this thread's own state.
  std::string out = "{\n  \"status\": \"ok\",\n  \"slots_aired\": ";
  out += std::to_string(slots_aired());
  out += ",\n  \"next_slot_lag_us\": ";
  out += std::to_string(clock_->lag_us(next_slot_));
  out += ",\n  \"uptime_seconds\": ";
  out += std::to_string(
      static_cast<double>(clock_->now_us() - on_air_epoch_us_) / 1e6);
  out += ",\n  \"generation\": ";
  out += std::to_string(generation());
  out += ",\n  \"loops\": ";
  out += std::to_string(loop_count_);
  out += ",\n  \"uring_egress\": ";
  out += uring_active_ ? "true" : "false";
  out += ",\n  \"sessions\": ";
  out += std::to_string(total_sessions());
  out += ",\n  \"sessions_per_loop\": [";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(
        shards_[i]->session_count.load(std::memory_order_acquire));
  }
  out += "],\n  \"evictions\": ";
  out += std::to_string(sessions_evicted());
  out += ",\n  \"slot_lag_p50_us\": ";
  out += std::to_string(watchdog_.p50_us());
  out += ",\n  \"slot_lag_p99_us\": ";
  out += std::to_string(watchdog_.p99_us());
  out += ",\n  \"slot_lag_p999_us\": ";
  out += std::to_string(watchdog_.p999_us());
  out += ",\n  \"slo_breaches\": ";
  out += std::to_string(watchdog_.breaches());
  out += ",\n  \"pull_channels\": ";
  out += std::to_string(config_.pull_channels);
  if (config_.pull_channels > 0) {
    out += ",\n  \"pull_policy\": \"";
    out += pull_policy_name(config_.pull_policy);
    out += "\",\n  \"pull_pending_pages\": ";
    out += std::to_string(pull_table_.pending_pages());
    out += ",\n  \"pull_pending_waiters\": ";
    out += std::to_string(pull_table_.pending_waiters());
    out += ",\n  \"pull_oldest_wait_slots\": ";
    out += std::to_string(pull_table_.oldest_wait(next_slot_));
    out += ",\n  \"pull_airings\": ";
    out += std::to_string(pull_airings_);
    out += ",\n  \"pull_waiters_served\": ";
    out += std::to_string(pull_waiters_served_);
  }
  out += "\n}\n";
  return out;
}

void AirServer::note_slot_aired(std::uint64_t lag_us,
                                std::uint64_t aired_mask) {
  const std::int64_t now_us = static_cast<std::int64_t>(clock_->now_us());
  watchdog_.observe(static_cast<double>(lag_us), now_us);
  // *_always: a long-lived server's scrape must show uptime even while
  // hot-path recording is disabled.
  obs::gauge_set_always(
      uptime_gauge_,
      static_cast<double>(clock_->now_us() - on_air_epoch_us_) / 1e6);
  const std::uint64_t flushed =
      bytes_flushed_total_.load(std::memory_order_relaxed);
  obs::SlotRecord rec;
  rec.slot = next_slot_;
  rec.scheduled_us = static_cast<std::int64_t>(clock_->deadline_us(next_slot_));
  rec.actual_us = rec.scheduled_us + static_cast<std::int64_t>(lag_us);
  rec.bytes_flushed = flushed - last_timeline_bytes_;
  rec.sessions = total_sessions();
  rec.evictions = sessions_evicted();
  rec.generation = generation();
  rec.aired_mask = aired_mask;
  timeline_.record(rec);
  last_timeline_bytes_ = flushed;
}

void AirServer::worker_body(std::size_t index) {
  LoopShard& shard = *shards_[index];
  shard.running = true;
  shard.loop->add(shard.listener.get(), EPOLLIN,
                  [this, &shard](std::uint32_t) { on_accept(shard); });
  if (shard.uring)
    shard.loop->add(shard.uring->event_fd(), EPOLLIN,
                    [this, &shard](std::uint32_t) { harvest_uring(shard); });
  while (shard.running) shard.loop->poll(-1);
  drain_and_close(shard);
}

void AirServer::drain_and_close(LoopShard& shard) {
  // Bounded drain: give buffered frames one real chance to reach clients
  // before the sockets close under them.
  const std::uint64_t drain_deadline = clock_->now_us() + 200'000;
  for (;;) {
    bool pending = false;
    for (auto& [fd, session] : shard.sessions)
      if (!session.out.empty()) pending = true;
    if (!pending || clock_->now_us() >= drain_deadline) break;
    shard.loop->poll(10'000);
  }
  std::vector<int> fds;
  fds.reserve(shard.sessions.size());
  for (const auto& [fd, session] : shard.sessions) fds.push_back(fd);
  for (const int fd : fds) close_session(shard, fd, "server shutdown");
  if (shard.uring) shard.loop->remove(shard.uring->event_fd());
  shard.loop->remove(shard.listener.get());
}

void AirServer::stop() {
  shards_[0]->loop->post([this] { running_ = false; });
}

void AirServer::on_timer() {
  timer_.acknowledge();
  // A loop that fell behind its clock airs a bounded burst and then yields
  // to epoll (the re-armed timer fires at once), so loop 0's sessions and
  // the admin plane are served between bursts instead of starving until
  // the clock is caught up.
  constexpr int kCatchUpBurst = 8;
  for (int aired = 0; running_ && aired < kCatchUpBurst &&
                      clock_->until_due_us(next_slot_) == 0;
       ++aired) {
    air_slot();
    if (config_.max_slots != 0 &&
        slots_aired_.load(std::memory_order_relaxed) >= config_.max_slots) {
      running_ = false;
      return;
    }
  }
  if (running_) timer_.arm_after_us(clock_->until_due_us(next_slot_));
}

void AirServer::maybe_activate_swap() {
  if (!pending_) return;
  const SlotCount cycle = current_->program.cycle_length();
  if (static_cast<SlotCount>(next_slot_ - current_->start_slot) % cycle != 0)
    return;
  TCSA_TRACE_SPAN("server.swap.apply");
  pending_->start_slot = next_slot_;
  current_ = std::move(pending_);
  generation_id_.store(current_->id, std::memory_order_relaxed);
  note_generation(current_->id);
  // The demand table keys by page id, which survives the swap — pending
  // pulls keep their place in line across generations. Only demand for
  // pages beyond the new workload's universe is orphaned, and dropped.
  if (config_.pull_channels > 0) {
    const std::size_t orphaned = pull_table_.drop_pages_at_or_above(
        static_cast<PageId>(current_->workload.total_pages()));
    if (orphaned > 0) {
      obs::counter_add(server_metrics().pull_waiters_dropped, orphaned);
      TCSA_LOG(kWarn) << "air server: swap to generation " << current_->id
                      << " dropped " << orphaned
                      << " pending pull waiter(s) for pages beyond the new "
                         "workload";
    }
  }
  publish_hello(*current_);
  obs::counter_add(server_metrics().swaps, 1);
  TCSA_LOG(kInfo) << "air server: generation " << current_->id
                  << " on air at slot " << next_slot_ << " (offset "
                  << current_->offset << ")";
  // One encode, one shared buffer, N refcount bumps — on every loop. The
  // snapshot above is republished *before* the tokens are posted, so a
  // session greeted concurrently on another loop either already carries
  // this generation in its hello (and the token skips it) or carries the
  // old one (and the token reaches it): exactly one notification per
  // session either way.
  std::uint32_t gen_id = 0;
  std::string announce;
  net::append_frame(announce, net::FrameType::kAnnounce,
                    hello_payload_now(&gen_id));
  const net::SharedBuf shared = net::SharedBuf::wrap(std::move(announce));
  deliver_announce(*shards_[0], shared, gen_id);
  for (std::size_t i = 1; i < loop_count_; ++i)
    shards_[i]->loop->post([this, i, shared, gen_id] {
      deliver_announce(*shards_[i], shared, gen_id);
    });
}

void AirServer::deliver_announce(LoopShard& shard, const net::SharedBuf& buf,
                                 std::uint32_t gen_id) {
  // Flushed here, not left to the next slot's fan-out: a session whose
  // mask airs nothing (untuned, or tuned to channels the new program left
  // empty) is never in a fan-out, and the announce is its only news.
  std::vector<int> fds;
  for (auto& [fd, session] : shard.sessions) {
    if (session.hello_generation >= gen_id) continue;
    session.hello_generation = gen_id;
    enqueue_buf(session, buf);
    fds.push_back(fd);
  }
  flush_fanout(shard, fds);
}

void AirServer::air_slot() {
  TCSA_TRACE_SPAN_VAR(span, "server.slot");
  maybe_activate_swap();
  const Generation& gen = *current_;
  const SlotCount cycle = gen.program.cycle_length();
  const SlotCount column =
      (gen.offset + static_cast<SlotCount>(next_slot_ - gen.start_slot)) %
      cycle;
  const std::uint64_t lag_us = clock_->lag_us(next_slot_);
  obs::histogram_observe(server_metrics().lag_hist,
                         static_cast<double>(lag_us));
  obs::counter_add(server_metrics().slots_aired, 1);
  std::uint64_t slot_aired_mask = 0;

  // Audience union across every shard: O(loops) atomic loads, exact
  // because each shard maintains per-channel subscriber counts. A channel
  // nobody subscribes to never has its frame assembled at all.
  std::uint64_t audience = 0;
  for (const auto& shard : shards_)
    audience |= shard->audience.load(std::memory_order_acquire);
  const SlotCount channel_count = gen.program.channels();

  // A new generation invalidates the frame cache: cached bodies bake in
  // the generation id and placement. Buffers a slow session still has
  // queued stay alive through their refcounts until that queue drains.
  if (frame_cache_generation_ != gen.id)
    reset_frame_cache(gen.id, channel_count, cycle);
  // One acquire sweep per slot: the epoch floor below which every worker
  // loop has provably dropped its token references (see slot_frame).
  const std::uint64_t floor = delivered_floor();

  if (loop_count_ == 1) {
    // Single-loop airing: the classic in-place path — fan straight out of
    // the cache into the local sessions, no cross-loop token. (floor is
    // UINT64_MAX here, so slot_frame degenerates to the pure sole-owner
    // patch: byte-identical to the pre-multi-loop-cache behavior.)
    std::uint64_t aired_mask = 0;
    std::vector<PageId> pages(static_cast<std::size_t>(channel_count),
                              kNoPage);
    for (SlotCount ch = 0; ch < channel_count; ++ch) {
      if (((audience >> ch) & 1) == 0) continue;
      const PageId page = gen.program.at(ch, column);
      if (page == kNoPage) continue;
      pages[static_cast<std::size_t>(ch)] = page;
      slot_frame(gen, ch, column, cycle, page, floor);  // stamps the cell
      aired_mask |= 1ull << ch;
    }
    span.set_arg("channels", aired_mask);
    slot_aired_mask = aired_mask;

    // On-demand airings for this slot, picked before the fan-out so a pull
    // frame reaches its waiters in the same flush as the broadcast frames.
    SlotFrames pulls;
    pulls.slot = next_slot_;
    schedule_pulls(pulls);

    LoopShard& shard = *shards_[0];
    std::vector<int> fds;
    fds.reserve(shard.sessions.size());
    for (auto& [fd, session] : shard.sessions) {
      const std::uint64_t hit = session.mask & aired_mask;
      if (hit == 0) continue;
      for (SlotCount ch = 0; ch < channel_count; ++ch) {
        if ((hit >> ch) & 1)
          enqueue_buf(session,
                      frame_cache_[static_cast<std::size_t>(ch) * cycle +
                                   column]);
      }
      if (!session.pending.empty())
        note_request_encodes(session, next_slot_, hit, pages);
      fds.push_back(fd);
    }
    if (!pulls.pull_frames.empty()) deliver_pull_frames(shard, pulls, fds);
    flush_fanout(shard, fds);

    std::size_t queued = 0;
    for (const auto& [fd, session] : shard.sessions)
      queued += session.out.bytes();
    shard.queued_bytes.store(queued, std::memory_order_release);
    obs::gauge_set(server_metrics().queue_depth_gauge,
                   static_cast<double>(queued));
    obs::gauge_set(loop_queue_gauges_[0], static_cast<double>(queued));
  } else {
    // Multi-loop airing: build the slot's frame set out of the epoch-
    // stamped cache (a steady-state cycle is all slot-word patches, zero
    // encodes) and ship one refcounted token per worker loop. Per-slot
    // cost: O(channels) patches here, O(sessions/K) queue appends per
    // loop.
    auto frames = std::make_shared<SlotFrames>();
    frames->slot = next_slot_;
    frames->by_channel.resize(channel_count);
    frames->page_by_channel.assign(static_cast<std::size_t>(channel_count),
                                   kNoPage);
    std::uint64_t aired_mask = 0;
    for (SlotCount ch = 0; ch < channel_count; ++ch) {
      if (((audience >> ch) & 1) == 0) continue;
      const PageId page = gen.program.at(ch, column);
      if (page == kNoPage) continue;
      frames->page_by_channel[static_cast<std::size_t>(ch)] = page;
      frames->by_channel[ch] = slot_frame(gen, ch, column, cycle, page, floor);
      aired_mask |= 1ull << ch;
    }
    frames->aired_mask = aired_mask;
    span.set_arg("channels", aired_mask);
    slot_aired_mask = aired_mask;
    // Pull airings ride the same refcounted token; each shard matches them
    // against its own sessions' pending requests.
    schedule_pulls(*frames);

    std::shared_ptr<const SlotFrames> token = std::move(frames);
    for (std::size_t i = 1; i < loop_count_; ++i)
      shards_[i]->loop->post([this, i, token]() mutable {
        const std::uint64_t slot = token->slot;
        deliver_slot(*shards_[i], *token);
        // Drop the token reference BEFORE publishing the epoch:
        // drain_posted() destroys this closure only after the whole posted
        // batch runs, so the implicit release at destruction would lag the
        // floor and turn every patch check into a miss.
        token.reset();
        shards_[i]->delivered_through.store(slot + 1,
                                            std::memory_order_release);
      });
    deliver_slot(*shards_[0], *token);
    token.reset();

    // Worker depths are one token behind — a gauge reads "after the last
    // flush each loop completed", which is the honest aggregate anyway.
    std::size_t queued = 0;
    for (const auto& shard : shards_)
      queued += shard->queued_bytes.load(std::memory_order_acquire);
    obs::gauge_set(server_metrics().queue_depth_gauge,
                   static_cast<double>(queued));
  }

  note_slot_aired(lag_us, slot_aired_mask);
  slots_aired_.fetch_add(1, std::memory_order_release);
  ++next_slot_;
}

std::uint64_t AirServer::delivered_floor() const noexcept {
  // loops == 1: the airing loop owns every reference itself, so the
  // refcount check alone is authoritative — an unbounded floor keeps the
  // classic path classic.
  std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 1; i < loop_count_; ++i)
    floor = std::min(
        floor, shards_[i]->delivered_through.load(std::memory_order_acquire));
  return floor;
}

void AirServer::reset_frame_cache(std::uint32_t gen_id,
                                  SlotCount channel_count, SlotCount cycle) {
  frame_cache_generation_ = gen_id;
  const std::size_t cells = static_cast<std::size_t>(channel_count) * cycle;
  frame_cache_.assign(cells, net::SharedBuf());
  frame_cache_slot_.assign(cells, 0);
}

net::SharedBuf AirServer::slot_frame(const Generation& gen, SlotCount ch,
                                     SlotCount column, SlotCount cycle,
                                     PageId page, std::uint64_t floor) {
  const std::size_t cell = static_cast<std::size_t>(ch) * cycle + column;
  net::SharedBuf& cached = frame_cache_[cell];
  // Patch-eligible only when (a) the epoch floor proves every worker loop
  // released the token references from this cell's last airing, and (b)
  // the refcount shows no session queue anywhere still drains the buffer.
  // Either failing means one fresh encode — correctness never depends on
  // the cache hitting.
  const bool epoch_ok = floor > frame_cache_slot_[cell];
  if (epoch_ok && cached.patch_u64(net::kFrameHeaderSize, next_slot_)) {
    obs::counter_add(server_metrics().frame_cache_hits, 1);
  } else {
    std::string payload;
    wire_put_u64(payload, next_slot_);
    wire_put_u32(payload, gen.id);
    wire_put_u32(payload, static_cast<std::uint32_t>(ch));
    wire_put_u32(payload, page);
    std::string bytes;
    net::append_frame(bytes, net::FrameType::kPage, payload);
    cached = net::SharedBuf::wrap(std::move(bytes));
    obs::counter_add(server_metrics().frames_encoded, 1);
  }
  frame_cache_slot_[cell] = next_slot_;
  return cached;
}

void AirServer::deliver_slot(LoopShard& shard, const SlotFrames& frames) {
  const SlotCount channel_count =
      static_cast<SlotCount>(frames.by_channel.size());
  std::vector<int> fds;
  fds.reserve(shard.sessions.size());
  for (auto& [fd, session] : shard.sessions) {
    const std::uint64_t hit = session.mask & frames.aired_mask;
    if (hit == 0) continue;
    for (SlotCount ch = 0; ch < channel_count; ++ch) {
      if ((hit >> ch) & 1) enqueue_buf(session, frames.by_channel[ch]);
    }
    if (!session.pending.empty())
      note_request_encodes(session, frames.slot, hit,
                           frames.page_by_channel);
    fds.push_back(fd);
  }
  if (!frames.pull_frames.empty()) deliver_pull_frames(shard, frames, fds);
  flush_fanout(shard, fds);
  std::size_t queued = 0;
  for (const auto& [fd, session] : shard.sessions)
    queued += session.out.bytes();
  shard.queued_bytes.store(queued, std::memory_order_release);
  obs::gauge_set(loop_queue_gauges_[shard.index],
                 static_cast<double>(queued));
}

void AirServer::flush_fanout(LoopShard& shard, const std::vector<int>& fds) {
  if (shard.uring) {
    // The pull fan-out may append an fd the broadcast fan-out already
    // queued; the batch must not stage two SQEs gathering the same bytes.
    std::vector<int> dirty(fds);
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    flush_fanout_uring(shard, std::move(dirty));
    return;
  }
  // Classic path: one flush_session per fd. Flushing may evict, so walk
  // by fd lookup (a duplicate fd's second flush is a cheap no-op).
  for (const int fd : fds) {
    const auto it = shard.sessions.find(fd);
    if (it == shard.sessions.end()) continue;
    if (flush_session(shard, it->second) && !it->second.pending.empty())
      finish_requests(it->second);
  }
}

void AirServer::flush_fanout_uring(LoopShard& shard, std::vector<int> dirty) {
  net::UringFlusher& ring = *shard.uring;
  const std::size_t cap = ring.capacity();
  // Per-batch arenas: the msghdr/iovec arrays must outlive the enter that
  // submits them — with MSG_DONTWAIT every completion is harvested before
  // the window below finishes, so stack scope is exactly right.
  std::vector<struct iovec> iov;
  std::vector<struct msghdr> msgs;
  std::vector<int> window_fds;
  std::vector<net::UringFlusher::Completion> cqes;
  std::vector<int> round = std::move(dirty);
  std::vector<int> next_round;
  const std::vector<int> all_fds = round;  // post-flush bookkeeping walk

  while (!round.empty()) {
    next_round.clear();
    for (std::size_t base = 0; base < round.size(); base += cap) {
      const std::size_t n = std::min(cap, round.size() - base);
      iov.resize(n * kUringIovPerTarget);
      msgs.assign(n, msghdr{});
      window_fds.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const int fd = round[base + i];
        const auto it = shard.sessions.find(fd);
        if (it == shard.sessions.end() || it->second.out.empty()) continue;
        const std::size_t k = window_fds.size();
        struct iovec* vecs = &iov[k * kUringIovPerTarget];
        struct msghdr& msg = msgs[k];
        msg.msg_iov = vecs;
        msg.msg_iovlen = it->second.out.gather(vecs, kUringIovPerTarget);
        if (!ring.push_sendmsg(fd, &msg, k)) break;  // cannot happen: n<=cap
        window_fds.push_back(fd);
      }
      if (window_fds.empty()) continue;
      std::size_t enters = ring.submit_and_wait(
          static_cast<unsigned>(window_fds.size()));
      cqes.clear();
      ring.harvest(cqes);
      // Defensive tail: an op the kernel decided to finish asynchronously
      // (should not happen under MSG_DONTWAIT) is waited out here so the
      // arenas above never outlive their references.
      while (ring.inflight() > 0) {
        enters += ring.submit_and_wait(ring.inflight());
        ring.harvest(cqes);
      }
      const std::size_t sqes = window_fds.size();
      obs::counter_add(server_metrics().uring_enters, enters);
      obs::counter_add(server_metrics().uring_sqes, sqes);
      if (sqes > enters)
        obs::counter_add(server_metrics().uring_saved, sqes - enters);
      // CQE processing mirrors flush_queue's ledger: positive results
      // consume queue bytes, -EAGAIN parks the session for its own
      // EPOLLOUT wakeup (classic flush path), anything else is fatal.
      for (const net::UringFlusher::Completion& cqe : cqes) {
        const int fd = window_fds[static_cast<std::size_t>(cqe.user_data)];
        const auto it = shard.sessions.find(fd);
        if (it == shard.sessions.end()) continue;
        Session& session = it->second;
        if (cqe.res > 0) {
          const std::size_t sent = static_cast<std::size_t>(cqe.res);
          const std::size_t retired = session.out.consume(sent);
          bytes_flushed_total_.fetch_add(retired, std::memory_order_relaxed);
          obs::counter_add(server_metrics().bytes_sent, sent);
          obs::counter_add(server_metrics().bytes_flushed, retired);
          if (!session.out.empty()) next_round.push_back(fd);
        } else if (cqe.res == -EAGAIN || cqe.res == -EWOULDBLOCK ||
                   cqe.res == 0) {
          obs::counter_add(server_metrics().flush_eagain, 1);
        } else if (cqe.res == -EINTR) {
          next_round.push_back(fd);
        } else {
          errno = -cqe.res;
          close_session(shard, fd, "send error");
        }
      }
    }
    std::swap(round, next_round);
  }

  // Post-flush bookkeeping, classic flush_session semantics per session:
  // evict over-cap queues, rearm EPOLLOUT for the still-dirty, retire
  // flushed traced requests for the survivors.
  for (const int fd : all_fds) {
    const auto it = shard.sessions.find(fd);
    if (it == shard.sessions.end()) continue;
    Session& session = it->second;
    if (should_evict(session.out.bytes(), config_.max_session_buffer)) {
      evicted_.fetch_add(1, std::memory_order_relaxed);
      obs::counter_add(server_metrics().evictions, 1);
      TCSA_LOG(kWarn) << "air server: evicting slow client (queued "
                      << session.out.bytes() << " > cap "
                      << config_.max_session_buffer << ")";
      close_session(shard, fd, "slow client evicted");
      continue;
    }
    update_write_interest(shard, session);
    if (!session.pending.empty()) finish_requests(session);
  }
}

void AirServer::harvest_uring(LoopShard& shard) {
  shard.uring->drain_event_fd();
  std::vector<net::UringFlusher::Completion> cqes;
  if (shard.uring->harvest(cqes) > 0) {
    // Unreachable in the current design (batches wait for their own
    // completions); a stray CQE's bytes were counted by nobody, so say so.
    TCSA_LOG(kWarn) << "air server: harvested " << cqes.size()
                    << " stray uring completion(s) outside a batch";
  }
}

void AirServer::on_accept(LoopShard& shard) {
  for (;;) {
    net::Fd conn = net::accept_connection(shard.listener.get());
    if (!conn) return;
    net::set_tcp_nodelay(conn.get());
    net::set_send_buffer(conn.get(), config_.session_send_buffer);
    const int fd = conn.get();
    Session& session = shard.sessions[fd];
    session.fd = std::move(conn);
    session.id = next_session_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    shard.loop->add(fd, EPOLLIN, [this, &shard, fd](std::uint32_t events) {
      on_session_event(shard, fd, events);
    });
    shard.session_count.store(shard.sessions.size(),
                              std::memory_order_release);
    obs::counter_add(server_metrics().sessions_opened, 1);
    note_session_count(total_sessions());
    std::uint32_t gen_id = 0;
    const std::string hello = hello_payload_now(&gen_id);
    session.hello_generation = gen_id;
    queue_frame(session, net::FrameType::kHello, hello);
    flush_session(shard, session);
  }
}

void AirServer::on_session_event(LoopShard& shard, int fd,
                                 std::uint32_t events) {
  auto it = shard.sessions.find(fd);
  if (it == shard.sessions.end()) return;
  Session& session = it->second;

  if (events & (EPOLLERR | EPOLLHUP)) {
    close_session(shard, fd, "peer hung up");
    return;
  }
  if (events & EPOLLOUT) {
    if (!flush_session(shard, session)) return;  // session died flushing
  }
  if ((events & EPOLLIN) == 0) return;

  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      session.decoder.feed(std::string_view(buffer,
                                            static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      close_session(shard, fd, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_session(shard, fd, "recv error");
    return;
  }

  net::Frame frame;
  try {
    while (session.decoder.next(frame)) {
      handle_frame(shard, fd, frame);
      if (shard.sessions.find(fd) == shard.sessions.end())
        return;  // closed inside
    }
  } catch (const std::invalid_argument& e) {
    TCSA_LOG(kWarn) << "air server: dropping session: " << e.what();
    close_session(shard, fd, "protocol error");
  }
}

void AirServer::handle_frame(LoopShard& shard, int fd,
                             const net::Frame& frame) {
  Session& session = shard.sessions.at(fd);
  switch (frame.type) {
    case net::FrameType::kTune: {
      WireReader reader(frame.payload);
      const std::uint64_t mask = reader.read_u64();
      reader.expect_done();
      set_mask(shard, session, mask);
      obs::counter_add(server_metrics().tunes, 1);
      return;
    }
    case net::FrameType::kReq: {
      WireReader reader(frame.payload);
      const std::uint64_t trace_id = reader.read_u64();
      const PageId page = reader.read_u32();
      reader.expect_done();
      handle_page_request(shard, session, trace_id, page);
      return;
    }
    case net::FrameType::kSwap: {
      // Seam planning and generation activation are single-writer on
      // loop 0; sessions elsewhere forward the request and get the reply
      // routed back by SessionRef (fd alone would be unsafe — fds reuse).
      const SessionRef ref{shard.index, fd, session.id};
      if (shard.index == 0) {
        handle_swap_request(ref, std::string(frame.payload));
      } else {
        shards_[0]->loop->post(
            [this, ref, payload = std::string(frame.payload)] {
              handle_swap_request(ref, payload);
            });
      }
      return;
    }
    default:
      throw std::invalid_argument("unexpected frame type from client");
  }
}

void AirServer::handle_page_request(LoopShard& shard, Session& session,
                                    std::uint64_t trace_id, PageId page) {
  const std::uint64_t t_recv = obs::trace_now_us();
  TCSA_REQ_EVENT(trace_id, obs::ReqStage::kServerRecv, t_recv, page);
  obs::counter_add(server_metrics().reqs, 1);
  // Promise + generation under the airing program, from the published
  // hello snapshot — worker loops must not touch loop-0 program state.
  std::uint32_t gen_id = 0;
  std::uint32_t expected_slots = 0;
  {
    const std::lock_guard<std::mutex> lock(hello_mutex_);
    gen_id = hello_.id;
    if (hello_.expected_times &&
        static_cast<std::size_t>(page) < hello_.expected_times->size())
      expected_slots = static_cast<std::uint32_t>(
          (*hello_.expected_times)[static_cast<std::size_t>(page)]);
  }
  if (session.pending.size() >= kMaxPendingReqs) {
    session.pending.erase(session.pending.begin());
    obs::counter_add(server_metrics().reqs_dropped, 1);
  }
  session.pending.push_back(PendingReq{trace_id, page, t_recv,
                                       kReqUnmatched, false});

  // With the pull plane on, the request is real demand, not just a tracing
  // hook: forward it to loop 0's demand table (the same single-writer
  // forwarding discipline as swap requests).
  if (config_.pull_channels > 0) {
    const std::uint64_t session_id = session.id;
    if (shard.index == 0) {
      note_pull_demand(session_id, trace_id, page);
    } else {
      shards_[0]->loop->post([this, session_id, trace_id, page] {
        note_pull_demand(session_id, trace_id, page);
      });
    }
  }

  const std::uint64_t next_slot = slots_aired_.load(std::memory_order_acquire);
  std::string payload;
  wire_put_u64(payload, trace_id);
  wire_put_u64(payload, t_recv);
  const std::uint64_t t_send = obs::trace_now_us();
  wire_put_u64(payload, t_send);
  wire_put_u64(payload, next_slot);
  wire_put_u32(payload, page);
  wire_put_u32(payload, expected_slots);
  wire_put_u32(payload, gen_id);
  TCSA_REQ_EVENT(trace_id, obs::ReqStage::kServerSched, t_send, next_slot);
  queue_frame(session, net::FrameType::kReqAck, payload);
  flush_session(shard, session);  // may close; caller re-checks the map
}

void AirServer::note_request_encodes(
    Session& session, std::uint64_t slot, std::uint64_t hit_mask,
    const std::vector<PageId>& page_by_channel) {
  for (PendingReq& req : session.pending) {
    if (req.encoded_slot != kReqUnmatched) continue;
    for (std::size_t ch = 0; ch < page_by_channel.size(); ++ch) {
      if (((hit_mask >> ch) & 1) == 0 || page_by_channel[ch] != req.page)
        continue;
      req.encoded_slot = slot;
      TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kServerEncoded,
                     obs::trace_now_us(), slot);
      break;
    }
  }
}

void AirServer::finish_requests(Session& session) {
  const std::uint64_t now = obs::trace_now_us();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < session.pending.size(); ++i) {
    PendingReq& req = session.pending[i];
    if (req.encoded_slot == kReqUnmatched) {
      session.pending[kept++] = req;
      continue;
    }
    TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kServerFlushed, now,
                   session.out.bytes());
    obs::counter_add(server_metrics().reqs_completed, 1);
    if (req.via_pull) obs::counter_add(server_metrics().reqs_pull_served, 1);
    // Separate service-time populations: the pull plane exists exactly for
    // the requests whose broadcast wait was unacceptable, so mixing them
    // into one distribution would hide the tail it fixes.
    obs::ReqPercentiles& delay =
        req.via_pull ? server_pull_delay() : server_req_delay();
    delay.record(static_cast<double>(now - req.recv_us));
    if (delay.count() % 64 == 1) delay.publish();
  }
  session.pending.resize(kept);
}

void AirServer::note_pull_demand(std::uint64_t session_id,
                                 std::uint64_t trace_id, PageId page) {
  // Loop-0 thread: current_ is this thread's own state.
  if (page >= static_cast<PageId>(current_->workload.total_pages())) {
    // The kReqAck already went out (with expected_slots = 0); nothing can
    // ever air for this page, so the demand is counted and dropped rather
    // than parked in the table forever.
    obs::counter_add(server_metrics().pull_unknown, 1);
    return;
  }
  const PullAdd outcome = pull_table_.add(
      page,
      PullWaiter{session_id, trace_id, next_slot_, obs::trace_now_us()});
  if (outcome == PullAdd::kDuplicate)
    obs::counter_add(server_metrics().pull_dups, 1);
  else
    obs::counter_add(server_metrics().pull_reqs, 1);
}

void AirServer::schedule_pulls(SlotFrames& frames) {
  if (config_.pull_channels == 0) return;
  [[maybe_unused]] const std::uint64_t now_us = obs::trace_now_us();
  for (std::size_t i = 0; i < config_.pull_channels; ++i) {
    std::optional<PullAiring> airing =
        pull_table_.pick(config_.pull_policy, next_slot_);
    if (!airing) break;
    std::string payload;
    wire_put_u64(payload, next_slot_);
    wire_put_u32(payload, current_->id);
    wire_put_u32(payload, airing->page);
    wire_put_u32(payload, static_cast<std::uint32_t>(airing->waiters.size()));
    std::string bytes;
    net::append_frame(bytes, net::FrameType::kPull, payload);
    frames.pull_frames.push_back(net::SharedBuf::wrap(std::move(bytes)));
    frames.pull_pages.push_back(airing->page);
    ++pull_airings_;
    pull_waiters_served_ += airing->waiters.size();
    obs::counter_add(server_metrics().frames_encoded, 1);
    obs::counter_add(server_metrics().pull_airings, 1);
    obs::counter_add(server_metrics().pull_waiters_served,
                     airing->waiters.size());
    // Observed pull waits feed popularity re-estimation: each waiter's
    // wait is a genuine demand-pressure sample for the page's deadline
    // class (clamped — a swap may have changed the class count since the
    // estimator was sized).
    const GroupId cls = std::min<GroupId>(
        current_->workload.group_of(airing->page),
        static_cast<GroupId>(pull_estimator_->classes() - 1));
    for (const PullWaiter& waiter : airing->waiters) {
      TCSA_REQ_EVENT(waiter.trace_id, obs::ReqStage::kServerPullAired,
                     now_us, airing->waiters.size());
      const std::uint64_t waited = next_slot_ - waiter.arrival_slot;
      pull_estimator_->add_sample(
          cls, std::max<SlotCount>(1, static_cast<SlotCount>(waited)));
    }
  }
  obs::gauge_set(server_metrics().pull_pending_pages_gauge,
                 static_cast<double>(pull_table_.pending_pages()));
  obs::gauge_set(server_metrics().pull_pending_waiters_gauge,
                 static_cast<double>(pull_table_.pending_waiters()));
  obs::gauge_set(server_metrics().pull_oldest_wait_gauge,
                 static_cast<double>(pull_table_.oldest_wait(next_slot_)));
}

void AirServer::deliver_pull_frames(LoopShard& shard, const SlotFrames& frames,
                                    std::vector<int>& flush_fds) {
  for (auto& [fd, session] : shard.sessions) {
    if (session.pending.empty()) continue;
    bool delivered = false;
    for (std::size_t i = 0; i < frames.pull_pages.size(); ++i) {
      bool matched = false;
      for (PendingReq& req : session.pending) {
        if (req.page != frames.pull_pages[i] ||
            req.encoded_slot != kReqUnmatched)
          continue;
        // A duplicate pending entry for the same page resolves off the
        // same frame: one airing, every waiter.
        req.encoded_slot = frames.slot;
        req.via_pull = true;
        TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kServerEncoded,
                       obs::trace_now_us(), frames.slot);
        matched = true;
      }
      if (!matched) continue;
      enqueue_buf(session, frames.pull_frames[i]);
      delivered = true;
    }
    // May duplicate an fd already queued by the broadcast fan-out; the
    // flush walk re-looks sessions up by fd, so a double flush is a no-op.
    if (delivered) flush_fds.push_back(fd);
  }
}

void AirServer::handle_swap_request(SessionRef requester,
                                    const std::string& payload) {
  const auto reject = [&](const std::string& error) {
    obs::counter_add(server_metrics().swaps_rejected, 1);
    std::string reply;
    wire_put_u8(reply, 0);
    wire_put_u32(reply, 0);
    wire_put_u64(reply, 0);
    wire_put_i64(reply, 0);
    reply.append(error);
    std::string bytes;
    net::append_frame(bytes, net::FrameType::kSwapReply, reply);
    send_swap_reply(requester, std::move(bytes));
  };

  if (swap_inflight_) {
    reject("a swap is already in flight");
    return;
  }

  SlotCount requested_channels = 0;
  std::uint8_t method_byte = net::kSwapMethodAuto;
  std::optional<Workload> workload;
  try {
    WireReader reader(payload);
    requested_channels = static_cast<SlotCount>(reader.read_u32());
    method_byte = reader.read_u8();
    workload = workload_from_binary(reader.read_rest());
  } catch (const std::invalid_argument& e) {
    reject(std::string("malformed swap request: ") + e.what());
    return;
  }
  const SlotCount channels =
      requested_channels > 0 ? requested_channels : channels_;
  if (channels > 64) {
    reject("swap: channel count exceeds the 64-channel mask limit");
    return;
  }
  const bool auto_method = method_byte == net::kSwapMethodAuto;
  if (!auto_method &&
      method_byte > static_cast<std::uint8_t>(Method::kRoundRobin)) {
    reject("swap: unknown scheduling method");
    return;
  }

  if (swap_worker_.joinable()) swap_worker_.join();
  swap_inflight_ = true;
  swap_requester_ = requester;

  // Snapshot what the worker needs; it must not touch loop-thread state.
  auto next_id = current_->id + 1;
  auto old_workload = current_->workload;
  auto old_program = current_->program;
  auto old_offset = current_->offset;
  swap_worker_ = std::thread([this, next_id, channels, auto_method,
                              method_byte, w = std::move(*workload),
                              old_workload = std::move(old_workload),
                              old_program = std::move(old_program),
                              old_offset] {
    TCSA_TRACE_SPAN("server.reschedule");
    std::shared_ptr<Generation> gen;
    SlotCount seam = 0;
    std::string error;
    try {
      const ScheduleOutcome outcome =
          auto_method
              ? choose_schedule(w, channels)
              : make_schedule(static_cast<Method>(method_byte), w, channels);
      const ValidityReport report = validate_program(outcome.program, w);
      if (!report.valid) {
        error = "rescheduled program is invalid (worst lateness " +
                std::to_string(report.worst_lateness) + " slots): " +
                report.violations.front();
      } else {
        const SwapPlan plan = plan_swap_seam(old_workload, old_program,
                                             old_offset, w, outcome.program);
        seam = plan.seam_lateness;
        gen = std::make_shared<Generation>(Generation{
            next_id, w, outcome.program, plan.offset, 0,
            workload_to_binary(w)});
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    shards_[0]->loop->post([this, gen = std::move(gen), seam,
                            error = std::move(error)] {
      swap_inflight_ = false;
      const SessionRef requester = swap_requester_;
      swap_requester_ = SessionRef{};
      if (gen) {
        pending_ = std::make_unique<Generation>(std::move(*gen));
      }
      if (!error.empty())
        obs::counter_add(server_metrics().swaps_rejected, 1);
      // Activation lands on the next major-cycle boundary of the current
      // generation — exact, because slots advance deterministically.
      std::uint64_t activation = 0;
      if (pending_) {
        const SlotCount cycle = current_->program.cycle_length();
        const SlotCount into =
            static_cast<SlotCount>(next_slot_ - current_->start_slot) % cycle;
        activation = into == 0 ? next_slot_ : next_slot_ + (cycle - into);
      }
      std::string reply;
      wire_put_u8(reply, error.empty() ? 1 : 0);
      wire_put_u32(reply, pending_ ? pending_->id : 0);
      wire_put_u64(reply, activation);
      wire_put_i64(reply, seam);
      reply.append(error);
      std::string bytes;
      net::append_frame(bytes, net::FrameType::kSwapReply, reply);
      send_swap_reply(requester, std::move(bytes));
    });
  });
}

void AirServer::send_swap_reply(const SessionRef& ref,
                                std::string frame_bytes) {
  if (ref.fd < 0) return;
  auto deliver = [this, ref, bytes = std::move(frame_bytes)]() mutable {
    LoopShard& shard = *shards_[ref.loop];
    const auto it = shard.sessions.find(ref.fd);
    if (it == shard.sessions.end() || it->second.id != ref.id)
      return;  // requester left; its fd may already belong to someone else
    enqueue_buf(it->second, net::SharedBuf::wrap(std::move(bytes)));
    flush_session(shard, it->second);
  };
  if (ref.loop == 0)
    deliver();
  else
    shards_[ref.loop]->loop->post(std::move(deliver));
}

void AirServer::queue_frame(Session& session, net::FrameType type,
                            std::string_view payload) {
  std::string bytes;
  net::append_frame(bytes, type, payload);
  enqueue_buf(session, net::SharedBuf::wrap(std::move(bytes)));
}

void AirServer::enqueue_buf(Session& session, net::SharedBuf buf) {
  obs::counter_add(server_metrics().frames_sent, 1);
  obs::counter_add(server_metrics().bytes_queued, buf.size());
  session.out.push(std::move(buf));
}

bool AirServer::flush_session(LoopShard& shard, Session& session) {
  const int fd = session.fd.get();
  const net::FlushResult result = net::flush_queue(fd, session.out);
  // The timeline's per-slot flush delta comes from this total, not the
  // registry counter: the timeline must work with recording disabled.
  bytes_flushed_total_.fetch_add(result.bytes_retired,
                                 std::memory_order_relaxed);
  if (result.syscalls > 0) {
    obs::counter_add(server_metrics().writev_calls, result.syscalls);
    obs::counter_add(server_metrics().bytes_sent, result.bytes_sent);
    obs::counter_add(server_metrics().bytes_flushed, result.bytes_retired);
  }
  // Would-block probes on their own meter: they are syscall overhead that
  // moved no bytes, and folding them into writev_calls would skew the
  // syscalls-per-flushed-byte ratio the egress benches gate on.
  if (result.eagain_calls > 0)
    obs::counter_add(server_metrics().flush_eagain, result.eagain_calls);
  if (result.error != 0) {
    close_session(shard, fd, "send error");
    return false;
  }
  if (should_evict(session.out.bytes(), config_.max_session_buffer)) {
    evicted_.fetch_add(1, std::memory_order_relaxed);
    obs::counter_add(server_metrics().evictions, 1);
    TCSA_LOG(kWarn) << "air server: evicting slow client (queued "
                    << session.out.bytes() << " > cap "
                    << config_.max_session_buffer << ")";
    close_session(shard, fd, "slow client evicted");
    return false;
  }
  update_write_interest(shard, session);
  return true;
}

void AirServer::update_write_interest(LoopShard& shard, Session& session) {
  const bool want = !session.out.empty();
  if (want == session.want_write) return;
  session.want_write = want;
  shard.loop->modify(session.fd.get(), EPOLLIN | (want ? EPOLLOUT : 0u));
}

void AirServer::set_mask(LoopShard& shard, Session& session,
                         std::uint64_t mask) {
  const std::uint64_t old = session.mask;
  if (old == mask) return;
  for (std::size_t ch = 0; ch < 64; ++ch) {
    const bool had = (old >> ch) & 1;
    const bool has = (mask >> ch) & 1;
    if (had && !has) --shard.channel_subs[ch];
    if (!had && has) ++shard.channel_subs[ch];
  }
  session.mask = mask;
  std::uint64_t audience = 0;
  for (std::size_t ch = 0; ch < 64; ++ch)
    if (shard.channel_subs[ch] != 0) audience |= 1ull << ch;
  shard.audience.store(audience, std::memory_order_release);
}

void AirServer::close_session(LoopShard& shard, int fd, const char* reason) {
  const auto it = shard.sessions.find(fd);
  if (it == shard.sessions.end()) return;
  TCSA_LOG(kDebug) << "air server: closing session fd=" << fd << " ("
                   << reason << ")";
  // No dangling waiters: the session's pull demands die with it, on loop 0
  // (the id — not the reusable fd — names the session there).
  if (config_.pull_channels > 0) {
    const std::uint64_t session_id = it->second.id;
    auto drop = [this, session_id] {
      const std::size_t dropped = pull_table_.drop_session(session_id);
      if (dropped > 0)
        obs::counter_add(server_metrics().pull_waiters_dropped, dropped);
    };
    if (shard.index == 0)
      drop();
    else
      shards_[0]->loop->post(std::move(drop));
  }
  set_mask(shard, it->second, 0);  // keep the audience union exact
  shard.loop->remove(fd);
  shard.sessions.erase(it);  // Fd destructor closes the socket
  shard.session_count.store(shard.sessions.size(), std::memory_order_release);
  obs::counter_add(server_metrics().sessions_closed, 1);
  note_session_count(total_sessions());
}

}  // namespace tcsa
