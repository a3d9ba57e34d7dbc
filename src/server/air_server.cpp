#include "server/air_server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/channel_bound.hpp"
#include "obs/artifact.hpp"
#include "model/serialize.hpp"
#include "obs/reqtrace.hpp"
#include "obs/trace.hpp"
#include "server/server_metrics.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"
#include "util/text.hpp"

namespace tcsa {
namespace {

void note_generation(std::uint32_t id) {
  obs::gauge_set(server_metrics().generation_gauge, static_cast<double>(id));
}

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

/// Slots the /slots ring keeps; /healthz's lag percentiles read the newest
/// 256.
constexpr std::size_t kTimelineSlots = 4096;
/// Events in the flight-recorder ring.
constexpr std::uint32_t kFlightEvents = 4096;

}  // namespace

AirServer::AirServer(Workload workload, AirServerConfig config)
    : config_(std::move(config)),
      timeline_(kTimelineSlots, config_.slot_us),
      watchdog_(config_.slo_breach_us,
                [](const std::string& msg) {
                  TCSA_LOG(kWarn) << "air server: " << msg;
                }),
      pull_(config_.pull_channels, config_.pull_policy) {
  // Start-up is the one wait every client spends on the server itself, so
  // a traced start names its stages the way a traced swap does.
  TCSA_TRACE_SPAN("server.start");
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

  PlannedGeneration first =
      plan_generation(std::move(workload), channels_, config_.method, nullptr);
  // Start-up airs whatever the workload allows; a swap
  // (handle_swap_request) refuses an invalid program instead.
  if (!first.report.valid) {
    TCSA_LOG(kWarn) << "air server: initial program is invalid (worst "
                       "lateness "
                    << first.report.worst_lateness
                    << " slots); clients will observe deadline misses";
  }
  current_ = std::move(first.generation);
  generation_id_.store(1, std::memory_order_relaxed);
  note_generation(1);
  common_.max_session_buffer = config_.max_session_buffer;
  common_.session_send_buffer = config_.session_send_buffer;
  common_.slot_us = config_.slot_us;
  common_.hooks.swap = [this](const SessionRef& requester,
                              std::string payload) {
    route(requester.loop, 0,
          [this, requester, payload = std::move(payload)]() mutable {
            handle_swap_request(requester, std::move(payload));
          });
  };
  // With the pull plane on, a kReq is demand for loop 0's table (the same
  // single-writer forwarding as swap requests), and no waiter dangles: a
  // session's demands die with it, on loop 0 (the id — not the reusable fd
  // — names the session there).
  if (pull_.channels() > 0) {
    common_.hooks.demand = [this](std::size_t loop, std::uint64_t session_id,
                                  std::uint64_t trace_id, PageId page) {
      route(loop, 0, [this, session_id, trace_id, page] {
        pull_.add_demand(session_id, trace_id, page, next_slot_,
                         current_->workload.total_pages());
      });
    };
    common_.hooks.closed = [this](std::size_t loop, std::uint64_t id) {
      route(loop, 0, [this, id] { pull_.drop_session(id); });
    };
  }

  // Shard 0 resolves the (possibly ephemeral) port; with several loops it
  // does so inside a reuseport group that shards 1..K-1 join at the
  // concrete port (binding every shard at port 0 would scatter them across
  // K different ports).
  {
    TCSA_TRACE_SPAN("server.start.listen");
    group_ = std::make_unique<net::LoopGroup>(loop_count_);
    shards_.reserve(loop_count_);
    for (std::size_t i = 0; i < loop_count_; ++i) {
      net::Fd listener =
          loop_count_ == 1
              ? net::listen_tcp(config_.bind_address, config_.port)
              : net::listen_reuseport(config_.bind_address,
                                      i == 0 ? config_.port : port_);
      if (i == 0) port_ = net::local_port(listener.get());
      shards_.push_back(std::make_unique<LoopShard>(
          i, group_->loop(i), std::move(listener), common_, current_));
    }
  }

  // Egress backend: the batched ring when the kernel offers it, else the
  // classic per-session sendmsg flush.
  {
    TCSA_TRACE_SPAN("server.start.egress");
    if (!net::UringFlusher::supported()) {
      TCSA_LOG(kInfo) << "air server: io_uring unavailable (probe failed); "
                         "using sendmsg flush";
    } else {
      try {
        for (auto& shard : shards_)
          shard->uring = std::make_unique<net::UringFlusher>(kUringEntries);
        uring_active_ = true;
        TCSA_LOG(kInfo) << "air server: io_uring egress on (" << loop_count_
                        << " ring(s) x " << shards_[0]->uring->capacity()
                        << " entries)";
      } catch (const std::exception& e) {
        for (auto& shard : shards_) shard->uring.reset();
        TCSA_LOG(kInfo) << "air server: " << e.what()
                        << "; using sendmsg flush";
      }
    }
  }
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
        group_->loop(0), config_.bind_address,
        static_cast<std::uint16_t>(config_.admin_port));
    setup_admin_routes();
  }
}

AirServer::~AirServer() {
  if (swap_worker_.joinable()) swap_worker_.join();
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
    if (flight.open(config_.flight_out, kFlightEvents)) {
      obs::flight_install_signal_handlers();
      TCSA_LOG(kInfo) << "air server: flight recorder on ("
                      << config_.flight_out << ", " << kFlightEvents
                      << " events)";
    } else {
      TCSA_LOG(kWarn) << "air server: " << flight.error();
    }
  }
  obs::gauge_set(server_metrics().loops_gauge,
                 static_cast<double>(loop_count_));
  LoopShard& shard0 = *shards_[0];
  shard0.listen();
  shard0.loop().add(timer_.fd(), EPOLLIN,
                    [this](std::uint32_t) { on_timer(); });
  // Admin handlers read loop-0 state (clock_, next_slot_), and they run
  // only inside loop 0's poll below, after the clock exists.
  if (admin_) admin_->start();
  if (config_.install_signal_handlers) install_signal_pipe();
  timer_.arm_after_us(0);
  running_ = true;
  group_->start_workers([this](std::size_t index) { shards_[index]->run(); });
  // The epoch is slot 0's due time: taken last, so start-up work is not
  // charged to slot 0 as lag.
  clock_ = std::make_unique<net::SlotClock>(config_.slot_us);
  on_air_epoch_us_ = clock_->now_us();

  std::exception_ptr error;
  try {
    while (running_) shard0.loop().poll(-1);
  } catch (...) {
    error = std::current_exception();
  }

  // Shutdown fan-out: each worker loop drains and closes its own sessions
  // on its own thread (session state never crosses loops, even dying).
  for (std::size_t i = 1; i < loop_count_; ++i) {
    LoopShard* shard = shards_[i].get();
    shard->loop().post([shard] { shard->stop(); });
  }
  shard0.drain_and_close();
  if (admin_) admin_->shutdown();
  remove_signal_pipe();
  shard0.loop().remove(timer_.fd());
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
  shards_[0]->loop().add(signal_rd_.get(), EPOLLIN, [this](std::uint32_t) {
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
  shards_[0]->loop().remove(signal_rd_.get());
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
  // /slots dumps the airing timeline; ?max=N trims to the newest N (0 or
  // no max: the whole ring). Anything but a whole non-negative number
  // (max=-1, max=abc, max=5x) is a 400.
  admin_->route("/slots", [this](std::string_view query) -> net::HttpResponse {
    std::size_t max_records = 0;
    constexpr std::string_view kMax = "max=";
    if (const std::size_t pos = query.find(kMax);
        pos != std::string_view::npos) {
      std::string_view value = query.substr(pos + kMax.size());
      value = value.substr(0, value.find('&'));
      const auto [end, error] = parse_int_prefix(value, max_records);
      if (error != std::errc() || end != value.data() + value.size())
        return {400, "text/plain; charset=utf-8",
                "max must be a non-negative integer\n"};
    }
    return {200, "application/json", timeline_.to_json(max_records)};
  });
}

std::string AirServer::healthz_json() const {
  // Loop-0 thread: next_slot_ and clock_ are this thread's own state.
  std::string out = "{\n  \"status\": \"ok\"";
  const auto field = [&out](const char* key, const std::string& value) {
    out.append(",\n  \"").append(key).append("\": ").append(value);
  };
  const auto number = [&field](const char* key, auto value) {
    field(key, std::to_string(value));
  };
  number("slots_aired", slots_aired());
  number("next_slot_lag_us", clock_->lag_us(next_slot_));
  number("uptime_seconds",
         static_cast<double>(clock_->now_us() - on_air_epoch_us_) / 1e6);
  number("generation", generation());
  number("loops", loop_count_);
  field("uring_egress", uring_active_ ? "true" : "false");
  number("sessions", common_.sessions.load());
  std::string per_loop = "[";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) per_loop += ", ";
    per_loop += std::to_string(
        shards_[i]->session_count.load(std::memory_order_acquire));
  }
  field("sessions_per_loop", per_loop + "]");
  number("evictions", sessions_evicted());
  const obs::LagPercentiles lag = obs::recent_lag_percentiles(timeline_);
  number("slot_lag_p50_us", lag.p50_us);
  number("slot_lag_p99_us", lag.p99_us);
  number("slot_lag_p999_us", lag.p999_us);
  number("slo_breaches", watchdog_.breaches());
  number("pull_channels", config_.pull_channels);
  if (config_.pull_channels > 0) {
    field("pull_policy",
          std::string("\"") + pull_policy_name(config_.pull_policy) + "\"");
    number("pull_pending_pages", pull_.table().pending_pages());
    number("pull_pending_waiters", pull_.table().pending_waiters());
    number("pull_oldest_wait_slots", pull_.table().oldest_wait(next_slot_));
    number("pull_airings", pull_.airings());
    number("pull_waiters_served", pull_.waiters_served());
  }
  out += "\n}\n";
  return out;
}

void AirServer::note_slot_aired(std::uint64_t lag_us,
                                std::uint64_t aired_mask) {
  const std::int64_t now_us = static_cast<std::int64_t>(clock_->now_us());
  // *_always: a long-lived server's scrape must show uptime even while
  // hot-path recording is disabled.
  obs::gauge_set_always(
      uptime_gauge_,
      static_cast<double>(clock_->now_us() - on_air_epoch_us_) / 1e6);
  const std::uint64_t flushed =
      common_.bytes_flushed.load(std::memory_order_relaxed);
  obs::SlotRecord rec;
  rec.slot = next_slot_;
  rec.scheduled_us = static_cast<std::int64_t>(clock_->deadline_us(next_slot_));
  rec.actual_us = rec.scheduled_us + static_cast<std::int64_t>(lag_us);
  rec.bytes_flushed = flushed - last_timeline_bytes_;
  rec.sessions = common_.sessions.load();
  rec.evictions = sessions_evicted();
  rec.generation = generation();
  rec.aired_mask = aired_mask;
  timeline_.record(rec);
  last_timeline_bytes_ = flushed;
  watchdog_.observe(static_cast<double>(lag_us), now_us);
}

void AirServer::stop() {
  shards_[0]->loop().post([this] { running_ = false; });
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
    if (config_.max_slots != 0 && slots_aired() >= config_.max_slots) {
      running_ = false;
      return;
    }
  }
  if (running_) timer_.arm_after_us(clock_->until_due_us(next_slot_));
}

std::uint64_t AirServer::next_cycle_boundary() const {
  const SlotCount cycle = current_->program.cycle_length();
  const SlotCount into =
      static_cast<SlotCount>(next_slot_ - current_->start_slot) % cycle;
  return into == 0 ? next_slot_ : next_slot_ + (cycle - into);
}

bool AirServer::maybe_activate_swap() {
  if (!pending_ || next_cycle_boundary() != next_slot_) return false;
  TCSA_TRACE_SPAN("server.swap.apply");
  pending_->start_slot = next_slot_;
  current_ = std::move(pending_);
  generation_id_.store(current_->id, std::memory_order_relaxed);
  note_generation(current_->id);
  // The demand table keys by page id, which survives the swap — pending
  // pulls keep their place in line across generations. Only demand for
  // pages beyond the new workload's universe is orphaned, and dropped.
  if (const std::size_t orphaned = pull_.drop_pages_at_or_above(
          static_cast<PageId>(current_->workload.total_pages()));
      orphaned > 0) {
    TCSA_LOG(kWarn) << "air server: swap to generation " << current_->id
                    << " dropped " << orphaned
                    << " pending pull waiter(s) for pages beyond the new "
                       "workload";
  }
  obs::counter_add(server_metrics().swaps, 1);
  TCSA_LOG(kInfo) << "air server: generation " << current_->id
                  << " on air at slot " << next_slot_ << " (offset "
                  << current_->offset << ")";
  return true;
}

void AirServer::air_slot() {
  TCSA_TRACE_SPAN_VAR(span, "server.slot");
  auto frames = std::make_shared<SlotFrames>();
  frames->slot = next_slot_;
  // One encode, one shared buffer: the activation slot's token carries the
  // announce to every session on every loop, ahead of the slot's frames.
  if (maybe_activate_swap())
    frames->announce = net::SharedBuf::wrap(current_->hello(
        net::FrameType::kAnnounce, config_.slot_us, next_slot_));
  frames->generation = current_;
  const Generation& gen = *current_;
  const SlotCount column = gen.column(next_slot_);
  const std::uint64_t lag_us = clock_->lag_us(next_slot_);
  obs::histogram_observe(server_metrics().lag_hist,
                         static_cast<double>(lag_us));
  obs::counter_add(server_metrics().slots_aired, 1);
  if (admin_ && admin_->resume_accept())
    obs::counter_add(server_metrics().accept_backoffs, 1);

  // Audience union across every shard: O(loops) atomic loads, exact
  // because each shard maintains per-channel subscriber counts. A channel
  // nobody subscribes to never has its frame assembled at all.
  std::uint64_t audience = 0;
  for (const auto& shard : shards_)
    audience |= shard->audience.load(std::memory_order_acquire);
  const auto channels = static_cast<std::size_t>(gen.program.channels());
  // Encode the slot's page frames back to back, in ascending channel
  // order, into one buffer shipped as a refcounted token. Per-slot cost:
  // O(channels) encodes here, O(sessions/K) queue appends per loop.
  std::string bytes;
  bytes.reserve(std::min<std::size_t>(std::popcount(audience), channels) *
                net::kPageFrameSize);
  for (std::size_t ch = 0; ch < channels; ++ch) {
    if (((audience >> ch) & 1) == 0) continue;
    const PageId page = gen.program.at(static_cast<SlotCount>(ch), column);
    if (page == kNoPage) continue;
    net::append(bytes, net::PageMsg{.slot = next_slot_,
                                    .generation = gen.id,
                                    .channel = static_cast<std::uint32_t>(ch),
                                    .page = page});
    frames->aired_mask |= 1ull << ch;
  }
  const std::uint64_t aired_mask = frames->aired_mask;
  if (aired_mask != 0) {
    obs::counter_add(server_metrics().frames_encoded,
                     static_cast<std::uint64_t>(std::popcount(aired_mask)));
    frames->bytes = net::SharedBuf::wrap(std::move(bytes));
  }
  span.set_arg("channels", aired_mask);
  // On-demand airings ride the same token, picked before the fan-out so a
  // pull frame reaches its waiters in the same flush as the broadcast.
  pull_.schedule(next_slot_, gen.id, frames->pull_frames, frames->pull_pages);

  // Workers are posted first, in loop order; shard 0 delivers last, inline.
  const std::shared_ptr<const SlotFrames> token = std::move(frames);
  for (std::size_t i = 1; i < loop_count_; ++i) {
    LoopShard* shard = shards_[i].get();
    shard->loop().post([shard, token] { shard->deliver(*token); });
  }
  shards_[0]->deliver(*token);

  // Worker depths are one token behind — a gauge reads "after the last
  // flush each loop completed", which is the honest aggregate anyway.
  std::size_t queued = 0;
  for (const auto& shard : shards_)
    queued += shard->queued_bytes.load(std::memory_order_acquire);
  obs::gauge_set(server_metrics().queue_depth_gauge,
                 static_cast<double>(queued));

  note_slot_aired(lag_us, aired_mask);
  slots_aired_.fetch_add(1, std::memory_order_release);
  ++next_slot_;
}

void AirServer::route(std::size_t from, std::size_t to,
                      std::function<void()> fn) {
  if (from == to)
    fn();
  else
    shards_[to]->loop().post(std::move(fn));
}

void AirServer::handle_swap_request(SessionRef requester,
                                    std::string payload) {
  const auto reject = [&](const std::string& error) {
    obs::counter_add(server_metrics().swaps_rejected, 1);
    send_swap_reply(requester, net::SwapReplyMsg{.error = error});
  };

  if (swap_inflight_) {
    reject("a swap is already in flight");
    return;
  }
  if (pending_) {
    reject("a swap is already pending: generation " +
           std::to_string(pending_->id) + " activates at slot " +
           std::to_string(next_cycle_boundary()));
    return;
  }

  net::SwapMsg request;
  try {
    request = net::decode<net::SwapMsg>(payload);
  } catch (const std::invalid_argument& e) {
    reject(std::string("malformed swap request: ") + e.what());
    return;
  }
  const std::uint8_t method_byte = request.method;
  const SlotCount channels =
      request.channels > 0 ? SlotCount{request.channels} : channels_;
  if (channels > 64) {
    reject("swap: channel count exceeds the 64-channel mask limit");
    return;
  }
  std::optional<Method> method;
  if (method_byte != net::kSwapMethodAuto) {
    if (method_byte > static_cast<std::uint8_t>(Method::kRoundRobin)) {
      reject("swap: unknown scheduling method");
      return;
    }
    method = static_cast<Method>(method_byte);
  }

  if (swap_worker_.joinable()) swap_worker_.join();
  swap_inflight_ = true;
  swap_requester_ = requester;

  // The worker shares the on-air generation (immutable once on air) and
  // must not touch any other loop-thread state.
  swap_worker_ = std::thread([this, channels, method,
                              payload = std::move(payload), old = current_] {
    TCSA_TRACE_SPAN("server.reschedule");
    std::shared_ptr<Generation> gen;
    SlotCount seam = 0;
    // Until the workload decodes, a failure is the request's fault.
    std::string error = "malformed swap request: ";
    try {
      Workload w =
          workload_from_binary(net::decode<net::SwapMsg>(payload).workload);
      error.clear();
      PlannedGeneration next =
          plan_generation(std::move(w), channels, method, old.get());
      // A swap never puts an invalid program on air.
      if (!next.report.valid) {
        error = "rescheduled program is invalid (worst lateness " +
                std::to_string(next.report.worst_lateness) + " slots): " +
                next.report.violations.front();
      } else {
        seam = next.seam_lateness;
        gen = std::move(next.generation);
      }
    } catch (const std::exception& e) {
      error += e.what();
    }
    shards_[0]->loop().post([this, gen = std::move(gen), seam,
                            error = std::move(error)] {
      swap_inflight_ = false;
      const SessionRef requester = swap_requester_;
      swap_requester_ = SessionRef{};
      if (gen) pending_ = std::move(gen);
      if (!error.empty())
        obs::counter_add(server_metrics().swaps_rejected, 1);
      send_swap_reply(
          requester,
          net::SwapReplyMsg{error.empty(), pending_ ? pending_->id : 0,
                            pending_ ? next_cycle_boundary() : 0, seam,
                            error});
    });
  });
}

void AirServer::send_swap_reply(const SessionRef& ref,
                                const net::SwapReplyMsg& msg) {
  if (ref.fd < 0) return;
  std::string reply = net::encode(msg);
  LoopShard* shard = shards_[ref.loop].get();
  route(0, ref.loop, [shard, ref, reply = std::move(reply)]() mutable {
    shard->send_to(ref, std::move(reply));
  });
}

}  // namespace tcsa
