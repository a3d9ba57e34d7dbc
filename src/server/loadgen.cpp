#include "server/loadgen.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "obs/log_histogram.hpp"
#include "obs/reqtrace.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"

namespace tcsa {
namespace {

std::uint64_t mono_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
}

std::uint64_t process_rss_bytes() {
  // /proc/self/statm: "size resident shared ..." in pages.
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (!file) return 0;
  long long size = 0, resident = 0;
  const int fields = std::fscanf(file, "%lld %lld", &size, &resident);
  std::fclose(file);
  if (fields != 2 || resident < 0) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

enum Phase : int { kRamp = 0, kMeasure = 1, kDone = 2 };

/// One traced kReq a loadgen session has in flight. Mirrors TuneClient's
/// OpenReq: the deadline lands with the ack (t0 + expected_slots * slot_us
/// on this client's trace clock) and the journey completes when the page
/// next arrives after the ack.
struct LgOpenReq {
  std::uint64_t trace_id = 0;
  std::uint32_t page = 0;
  std::uint64_t t0_us = 0;
  std::uint64_t deadline_us = 0;
  bool acked = false;
};

/// Open requests one session may hold; beyond this the oldest is dropped
/// (its ack/page raced the measurement window closing).
constexpr std::size_t kMaxOpenReqs = 8;

/// One impatient want (patience_slots >= 0): watch the broadcast for the
/// page, convert to a kReq when the patience runs out.
struct LgWant {
  std::uint32_t page = 0;
  std::uint64_t issue_slot = 0;
};

struct ClientSession {
  net::Fd fd;
  net::FrameDecoder decoder;
  std::size_t index = 0;   // global session index -> channel spread
  bool connected = false;  // non-blocking connect completed
  bool greeted = false;    // hello parsed, TUNE sent
  std::string outbox;      // unsent TUNE bytes (kernel buffer was full)
  std::uint64_t pages_seen = 0;      // kPage frames, any window
  std::uint32_t last_page = 0;       // most recent page on our channel
  bool has_page = false;
  std::vector<LgOpenReq> open_reqs;  // traced requests in flight
  std::vector<LgWant> wants;         // impatient wants still watching
};

struct ThreadResult {
  std::size_t established = 0;  // sessions that completed connect, ever
  std::uint64_t frames = 0;
  std::uint64_t pages = 0;   // kPage frames inside the measure window
  std::uint64_t bytes = 0;
  std::uint64_t early_closes = 0;
  std::uint64_t connect_failures = 0;
  obs::LogHistogram offsets;  // arrival offsets (us) past the shared base
  std::uint64_t requests_sent = 0;
  std::uint64_t request_acks = 0;
  std::uint64_t request_completions = 0;
  std::uint64_t request_misses = 0;
  obs::LogHistogram req_delays;  // us, one per completion
  obs::LogHistogram req_slacks;  // us, signed (negative = missed)
  std::uint64_t wants_issued = 0;
  std::uint64_t wants_broadcast = 0;
  std::uint64_t wants_pulled = 0;
  std::uint64_t pull_frames = 0;
  std::uint64_t pull_waiters = 0;  // coalescing factors summed
  std::uint64_t pull_completions = 0;
  std::uint64_t pull_misses = 0;
  obs::LogHistogram pull_delays;
  double pull_slack_min = std::numeric_limits<double>::infinity();
};

/// Unset value of the offset base shared by all client threads.
constexpr std::int64_t kNoBase = std::numeric_limits<std::int64_t>::min();

/// One client I/O thread: dials its quota in bounded batches, greets and
/// tunes each session, and records page-arrival offsets while the
/// coordinator holds the phase at kMeasure. Offsets are recorded past
/// `offset_base`, the first offset any thread saw (normally during the
/// ramp), so the histogram holds small signed values: its 1% relative error
/// is then at most 1% of the offsets' spread, not of the clock's epoch.
void client_thread_body(const LoadGenConfig& config, std::size_t first_index,
                       std::size_t quota, const std::atomic<int>& phase,
                       std::atomic<std::size_t>& ramped_threads,
                       std::atomic<std::int64_t>& offset_base,
                       ThreadResult& result) {
  net::EventLoop loop;
  std::unordered_map<int, ClientSession> sessions;
  std::uint32_t slot_us = 0;    // learned from the first hello
  std::uint32_t channels = 0;
  std::size_t dialed = 0;
  std::size_t inflight = 0;
  std::int64_t base = kNoBase;  // offset_base, once this thread learns it
  bool reported_ramped = false;
  const std::uint64_t ramp_deadline =
      mono_us() + config.ramp_timeout_ms * 1000ull;

  const auto close_session = [&](int fd, bool failure) {
    const auto it = sessions.find(fd);
    if (it == sessions.end()) return;
    if (!it->second.connected) {
      --inflight;
      ++result.connect_failures;
    } else if (failure && phase.load(std::memory_order_acquire) != kDone) {
      ++result.early_closes;
    }
    loop.remove(fd);
    sessions.erase(it);  // Fd destructor closes
  };

  // send() as much of the outbox as the kernel takes; false = session died.
  const auto flush_outbox = [&](int fd, ClientSession& session) -> bool {
    while (!session.outbox.empty()) {
      const ssize_t n = ::send(fd, session.outbox.data(),
                               session.outbox.size(), MSG_NOSIGNAL);
      if (n > 0) {
        session.outbox.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        loop.modify(fd, EPOLLIN | EPOLLOUT);
        return true;
      }
      close_session(fd, true);
      return false;
    }
    loop.modify(fd, EPOLLIN);
    return true;
  };

  // Issues one traced kReq for `page`. Queued through the outbox so a full
  // kernel buffer never blocks the loop.
  const auto issue_request = [&](ClientSession& session,
                                 std::uint32_t page) -> bool {
    const std::uint64_t trace_id = obs::mint_trace_id();
    const std::uint64_t t0 = obs::trace_now_us();
    std::string payload;
    wire_put_u64(payload, trace_id);
    wire_put_u32(payload, page);
    std::string bytes;
    net::append_frame(bytes, net::FrameType::kReq, payload);
    if (session.open_reqs.size() >= kMaxOpenReqs)
      session.open_reqs.erase(session.open_reqs.begin());
    session.open_reqs.push_back(LgOpenReq{trace_id, page, t0, 0, false});
    ++result.requests_sent;
    session.outbox += bytes;
    TCSA_REQ_EVENT(trace_id, obs::ReqStage::kClientSent, t0, page);
    return flush_outbox(session.fd.get(), session);
  };

  // Converts wants whose patience ran out into pull requests. The decision
  // is made against the broadcast slot clock (decision-time accounting,
  // like sim/hybrid's impatient clients). false = the session died while
  // flushing (the caller must not touch it again).
  const auto expire_wants = [&](ClientSession& session,
                                std::uint64_t slot) -> bool {
    for (auto it = session.wants.begin(); it != session.wants.end();) {
      if (slot <= it->issue_slot +
                      static_cast<std::uint64_t>(config.patience_slots)) {
        ++it;
        continue;
      }
      const std::uint32_t page = it->page;
      it = session.wants.erase(it);
      ++result.wants_pulled;
      if (!issue_request(session, page)) return false;
    }
    return true;
  };

  // Closes every acked open request for `page`, attributing the completion
  // to the broadcast or the pull population by the frame that carried it.
  const auto complete_reqs = [&](ClientSession& session, std::uint32_t page,
                                 std::uint64_t slot, bool via_pull) {
    if (session.open_reqs.empty()) return;
    const std::uint64_t now = obs::trace_now_us();
    for (auto it = session.open_reqs.begin();
         it != session.open_reqs.end();) {
      if (it->page != page || !it->acked) {
        ++it;
        continue;
      }
      TCSA_REQ_EVENT(it->trace_id, obs::ReqStage::kClientFirstByte, now,
                     slot);
      TCSA_REQ_EVENT(it->trace_id, obs::ReqStage::kClientDecoded, now, page);
      const double slack = static_cast<double>(it->deadline_us) -
                           static_cast<double>(now);
      if (via_pull) {
        ++result.pull_completions;
        if (slack < 0.0) ++result.pull_misses;
        result.pull_delays.record(static_cast<double>(now - it->t0_us));
        result.pull_slack_min = std::min(result.pull_slack_min, slack);
      } else {
        ++result.request_completions;
        if (slack < 0.0) ++result.request_misses;
        result.req_delays.record(static_cast<double>(now - it->t0_us));
        result.req_slacks.record(slack);
      }
      TCSA_REQ_EVENT(it->trace_id, obs::ReqStage::kClientDone, now,
                     static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(slack)));
      it = session.open_reqs.erase(it);
    }
  };

  const auto handle_frame = [&](ClientSession& session,
                                const net::Frame& frame) -> bool {
    ++result.frames;
    switch (frame.type) {
      case net::FrameType::kHello:
      case net::FrameType::kAnnounce: {
        WireReader reader(frame.payload);
        (void)reader.read_u32();  // generation
        const std::uint32_t hello_slot_us = reader.read_u32();
        const std::uint32_t hello_channels = reader.read_u32();
        if (slot_us == 0) slot_us = hello_slot_us;
        if (channels == 0) channels = hello_channels;
        if (!session.greeted && channels > 0) {
          session.greeted = true;
          // Spread subscriptions: session i listens to channel i mod C, so
          // any C consecutive sessions cover the whole program.
          std::string payload;
          wire_put_u64(payload, 1ull << (session.index % channels));
          std::string bytes;
          net::append_frame(bytes, net::FrameType::kTune, payload);
          session.outbox += bytes;
          return flush_outbox(session.fd.get(), session);
        }
        return true;
      }
      case net::FrameType::kPage: {
        WireReader reader(frame.payload);
        const std::uint64_t slot = reader.read_u64();
        (void)reader.read_u32();  // generation
        (void)reader.read_u32();  // channel
        const std::uint32_t page = reader.read_u32();
        session.last_page = page;
        session.has_page = true;
        ++session.pages_seen;
        const bool measuring =
            phase.load(std::memory_order_acquire) == kMeasure;
        if (slot_us != 0) {
          const std::int64_t offset =
              static_cast<std::int64_t>(mono_us()) -
              static_cast<std::int64_t>(slot * slot_us);
          if (base == kNoBase) {
            base = offset_base.load(std::memory_order_relaxed);
            if (base == kNoBase &&
                offset_base.compare_exchange_strong(
                    base, offset, std::memory_order_relaxed))
              base = offset;
          }
          if (measuring) {
            ++result.pages;
            result.offsets.record(static_cast<double>(offset - base));
          }
        }
        // Impatient wants: expire first (decision-time accounting), then
        // credit the broadcast for any want whose page aired in time.
        if (!session.wants.empty()) {
          if (!expire_wants(session, slot)) return false;
          for (auto it = session.wants.begin(); it != session.wants.end();) {
            if (it->page != page) {
              ++it;
              continue;
            }
            ++result.wants_broadcast;
            it = session.wants.erase(it);
          }
        }
        complete_reqs(session, page, slot, /*via_pull=*/false);
        // One request per request_every pages, asked for the page we just
        // saw — the next cycle must bring it back within its promise. In
        // impatient mode the request becomes a want that watches the
        // broadcast first and only falls back to the pull channel.
        if (measuring && config.request_every != 0 && session.has_page &&
            session.pages_seen % config.request_every == 0) {
          if (config.patience_slots >= 0) {
            if (session.wants.size() < kMaxOpenReqs) {
              session.wants.push_back(LgWant{page, slot});
              ++result.wants_issued;
            }
            return true;
          }
          return issue_request(session, session.last_page);
        }
        return true;
      }
      case net::FrameType::kPull: {
        WireReader reader(frame.payload);
        const std::uint64_t slot = reader.read_u64();
        (void)reader.read_u32();  // generation
        const std::uint32_t page = reader.read_u32();
        const std::uint32_t waiters = reader.read_u32();
        ++result.pull_frames;
        result.pull_waiters += waiters;
        // An on-demand airing: it answers requests (the pull-served
        // population) but never counts as a broadcast reception.
        complete_reqs(session, page, slot, /*via_pull=*/true);
        return true;
      }
      case net::FrameType::kReqAck: {
        WireReader reader(frame.payload);
        const std::uint64_t trace_id = reader.read_u64();
        (void)reader.read_u64();  // t1 (server recv stamp)
        (void)reader.read_u64();  // t2 (server send stamp)
        const std::uint64_t next_slot = reader.read_u64();
        (void)reader.read_u32();  // page
        const std::uint32_t expected_slots = reader.read_u32();
        (void)reader.read_u32();  // generation
        const std::uint64_t t3 = obs::trace_now_us();
        for (LgOpenReq& req : session.open_reqs) {
          if (req.trace_id != trace_id) continue;
          req.acked = true;
          req.deadline_us = req.t0_us + std::uint64_t{expected_slots} *
                                            std::uint64_t{slot_us};
          ++result.request_acks;
          TCSA_REQ_EVENT(trace_id, obs::ReqStage::kClientAcked, t3,
                         next_slot);
          break;
        }
        return true;
      }
      default:
        return true;  // swap replies etc. are not ours to judge
    }
  };

  const auto on_event = [&](int fd, std::uint32_t events) {
    const auto it = sessions.find(fd);
    if (it == sessions.end()) return;
    ClientSession& session = it->second;
    if (!session.connected) {
      if (events & (EPOLLERR | EPOLLHUP)) {
        close_session(fd, true);
        return;
      }
      if ((events & EPOLLOUT) == 0) return;
      if (net::connect_error(fd) != 0) {
        close_session(fd, true);
        return;
      }
      session.connected = true;
      --inflight;
      ++result.established;
      loop.modify(fd, EPOLLIN);  // the hello is on its way
      return;
    }
    if (events & (EPOLLERR | EPOLLHUP)) {
      close_session(fd, true);
      return;
    }
    if (events & EPOLLOUT) {
      if (!flush_outbox(fd, session)) return;
    }
    if ((events & EPOLLIN) == 0) return;

    char buffer[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        result.bytes += static_cast<std::uint64_t>(n);
        session.decoder.feed(
            std::string_view(buffer, static_cast<std::size_t>(n)));
        continue;
      }
      if (n == 0) {
        close_session(fd, true);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_session(fd, true);
      return;
    }
    net::Frame frame;
    try {
      while (session.decoder.next(frame)) {
        if (!handle_frame(session, frame)) return;
        if (sessions.find(fd) == sessions.end()) return;
      }
    } catch (const std::invalid_argument& e) {
      TCSA_LOG(kWarn) << "loadgen: dropping session: " << e.what();
      close_session(fd, true);
    }
  };

  const auto maybe_dial = [&] {
    while (dialed < quota && inflight < config.connect_batch &&
           mono_us() < ramp_deadline) {
      try {
        net::Fd conn =
            net::connect_tcp_nonblocking(config.host, config.port);
        const int fd = conn.get();
        ClientSession& session = sessions[fd];
        session.fd = std::move(conn);
        session.index = first_index + dialed;
        ++dialed;
        ++inflight;
        loop.add(fd, EPOLLIN | EPOLLOUT, [&on_event, fd](std::uint32_t events) {
          on_event(fd, events);
        });
      } catch (const std::exception& e) {
        ++dialed;
        ++result.connect_failures;
        TCSA_LOG(kWarn) << "loadgen: dial failed: " << e.what();
      }
    }
  };

  for (;;) {
    const int current = phase.load(std::memory_order_acquire);
    if (current == kDone) break;
    if (current == kRamp) {
      maybe_dial();
      if (!reported_ramped &&
          ((dialed >= quota && inflight == 0) ||
           mono_us() >= ramp_deadline)) {
        reported_ramped = true;
        ramped_threads.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    loop.poll(10'000);
  }
  if (!reported_ramped) ramped_threads.fetch_add(1, std::memory_order_acq_rel);

  std::vector<int> fds;
  fds.reserve(sessions.size());
  for (const auto& [fd, session] : sessions) fds.push_back(fd);
  for (const int fd : fds) close_session(fd, false);
}

}  // namespace

obs::MetricsSnapshot LoadGenReport::to_snapshot() const {
  obs::MetricsSnapshot snap;
  const auto counter = [&](const char* name, const char* help,
                           std::uint64_t value) {
    snap.counters.push_back(obs::CounterSnapshot{name, help, value});
  };
  const auto gauge = [&](const char* name, const char* help, double value) {
    snap.gauges.push_back(obs::GaugeSnapshot{name, help, {}, value});
  };
  // Counters carry the pass/fail substance (the obs diff gate compares
  // them against a committed baseline); the timing-dependent measurements
  // ride as gauges, which record but never gate.
  counter("tcsa_loadgen_sessions_total",
          "Sessions the load generator established", sessions_connected);
  counter("tcsa_loadgen_early_closes_total",
          "Sessions the server closed before teardown (evictions, errors)",
          early_closes);
  counter("tcsa_loadgen_connect_failures_total",
          "Dial attempts that never became sessions", connect_failures);
  counter("tcsa_loadgen_slo_violations_total",
          "1 when p99 slot-airing jitter exceeded the configured SLO",
          slo_violations);
  counter("tcsa_loadgen_frames_total", "Frames received across all sessions",
          frames);
  counter("tcsa_loadgen_pages_total",
          "Page frames received inside the measurement window", pages);
  counter("tcsa_loadgen_bytes_total", "Wire bytes received", bytes);
  counter("tcsa_loadgen_requests_total",
          "Traced page requests issued inside the measurement window",
          requests_sent);
  counter("tcsa_loadgen_request_acks_total",
          "Request acks received (deadline granted)", request_acks);
  counter("tcsa_loadgen_request_completions_total",
          "Requested pages received after their ack", request_completions);
  counter("tcsa_loadgen_request_misses_total",
          "Requests completed after their promised deadline", request_misses);
  counter("tcsa_loadgen_wants_total",
          "Impatient wants issued (watch the broadcast, pull on timeout)",
          wants_issued);
  counter("tcsa_loadgen_wants_broadcast_total",
          "Wants whose page aired within patience (broadcast-served)",
          wants_broadcast);
  counter("tcsa_loadgen_wants_pulled_total",
          "Wants whose patience ran out (converted to pull requests)",
          wants_pulled);
  counter("tcsa_loadgen_pull_frames_total",
          "On-demand kPull airings received", pull_frames);
  counter("tcsa_loadgen_pull_completions_total",
          "Requested pages delivered by the pull channel", pull_completions);
  counter("tcsa_loadgen_pull_misses_total",
          "Pull-served requests completed after their promised deadline",
          pull_misses);
  counter("tcsa_loadgen_pull_slo_violations_total",
          "1 when p99 pull-served delay exceeded the configured SLO",
          pull_slo_violations);
  gauge("tcsa_loadgen_sessions_requested", "Sessions the campaign asked for",
        static_cast<double>(sessions_requested));
  gauge("tcsa_loadgen_jitter_p50_us",
        "Median slot-airing jitter (arrival offset minus epoch estimate)",
        jitter_p50_us);
  gauge("tcsa_loadgen_jitter_p99_us", "p99 slot-airing jitter",
        jitter_p99_us);
  gauge("tcsa_loadgen_jitter_p999_us", "p99.9 slot-airing jitter",
        jitter_p999_us);
  gauge("tcsa_loadgen_jitter_max_us",
        "Worst slot-airing jitter (exact)", jitter_max_us);
  gauge("tcsa_loadgen_jitter_samples", "Jitter samples measured",
        static_cast<double>(samples));
  gauge("tcsa_loadgen_rss_per_session_bytes",
        "Process RSS growth across the ramp divided by sessions",
        rss_per_session_bytes);
  gauge("tcsa_loadgen_request_miss_rate",
        "Deadline misses over completed traced requests", request_miss_rate);
  gauge("tcsa_loadgen_request_delay_p50_us",
        "Median request-to-reception delay", request_delay_p50_us);
  gauge("tcsa_loadgen_request_delay_p99_us", "p99 request-to-reception delay",
        request_delay_p99_us);
  gauge("tcsa_loadgen_request_slack_p50_us",
        "Median slack against the promised deadline", request_slack_p50_us);
  gauge("tcsa_loadgen_request_slack_min_us",
        "Tightest (or most blown) request deadline", request_slack_min_us);
  gauge("tcsa_loadgen_pull_miss_rate",
        "Deadline misses over pull-served completions", pull_miss_rate);
  gauge("tcsa_loadgen_pull_delay_p50_us",
        "Median request-to-kPull delay (pull-served population)",
        pull_delay_p50_us);
  gauge("tcsa_loadgen_pull_delay_p99_us",
        "p99 request-to-kPull delay (pull-served population)",
        pull_delay_p99_us);
  gauge("tcsa_loadgen_pull_slack_min_us",
        "Tightest (or most blown) pull-served deadline", pull_slack_min_us);
  gauge("tcsa_loadgen_pull_coalesced_waiters_mean",
        "Average coalescing factor over received kPull frames",
        mean_coalesced_waiters);
  return snap;
}

std::string LoadGenReport::to_json() const { return to_snapshot().to_json(); }

LoadGenReport run_loadgen(const LoadGenConfig& config) {
  TCSA_REQUIRE(config.port != 0, "loadgen: --port is required");
  TCSA_REQUIRE(config.sessions >= 1, "loadgen: need at least one session");
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(config.threads, config.sessions));

  std::atomic<int> phase{kRamp};
  std::atomic<std::size_t> ramped{0};
  std::atomic<std::int64_t> offset_base{kNoBase};
  std::vector<ThreadResult> results(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);

  const std::uint64_t rss_before = process_rss_bytes();
  std::size_t assigned = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t quota =
        config.sessions / threads + (t < config.sessions % threads ? 1 : 0);
    workers.emplace_back(client_thread_body, std::cref(config), assigned,
                         quota, std::cref(phase), std::ref(ramped),
                         std::ref(offset_base), std::ref(results[t]));
    assigned += quota;
  }

  // Ramp barrier: wait (bounded) until every thread finished dialing, so
  // the measurement window sees a steady audience, not a connect storm.
  const std::uint64_t ramp_deadline =
      mono_us() + config.ramp_timeout_ms * 1000ull + 1'000'000ull;
  while (ramped.load(std::memory_order_acquire) < threads &&
         mono_us() < ramp_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t rss_after_ramp = process_rss_bytes();

  phase.store(kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(config.duration_ms));
  phase.store(kDone, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  LoadGenReport report;
  report.sessions_requested = config.sessions;
  // Per-thread histograms merge exactly, so the fleet tails are the tails
  // of every sample, not an average of per-thread percentiles.
  obs::LogHistogram offsets;
  obs::LogHistogram req_delays;
  obs::LogHistogram req_slacks;
  obs::LogHistogram pull_delays;
  double pull_slack_min = std::numeric_limits<double>::infinity();
  std::uint64_t pull_waiters = 0;
  for (const ThreadResult& r : results) {
    report.sessions_connected += r.established;
    report.frames += r.frames;
    report.pages += r.pages;
    report.bytes += r.bytes;
    report.early_closes += r.early_closes;
    report.connect_failures += r.connect_failures;
    offsets.merge(r.offsets);
    report.requests_sent += r.requests_sent;
    report.request_acks += r.request_acks;
    report.request_completions += r.request_completions;
    report.request_misses += r.request_misses;
    req_delays.merge(r.req_delays);
    req_slacks.merge(r.req_slacks);
    report.wants_issued += r.wants_issued;
    report.wants_broadcast += r.wants_broadcast;
    report.wants_pulled += r.wants_pulled;
    report.pull_frames += r.pull_frames;
    report.pull_completions += r.pull_completions;
    report.pull_misses += r.pull_misses;
    pull_delays.merge(r.pull_delays);
    pull_slack_min = std::min(pull_slack_min, r.pull_slack_min);
    pull_waiters += r.pull_waiters;
  }
  if (report.request_completions > 0) {
    report.request_miss_rate =
        static_cast<double>(report.request_misses) /
        static_cast<double>(report.request_completions);
    report.request_delay_p50_us = req_delays.quantile(0.50);
    report.request_delay_p99_us = req_delays.quantile(0.99);
    report.request_slack_p50_us = req_slacks.quantile(0.50);
    report.request_slack_min_us = req_slacks.min();
  }
  if (report.pull_completions > 0) {
    report.pull_miss_rate = static_cast<double>(report.pull_misses) /
                            static_cast<double>(report.pull_completions);
    report.pull_delay_p50_us = pull_delays.quantile(0.50);
    report.pull_delay_p99_us = pull_delays.quantile(0.99);
    report.pull_slack_min_us = pull_slack_min;
  }
  if (report.pull_frames > 0)
    report.mean_coalesced_waiters =
        static_cast<double>(pull_waiters) /
        static_cast<double>(report.pull_frames);
  if (config.pull_slo_p99_us > 0.0 && report.pull_completions > 0 &&
      report.pull_delay_p99_us > config.pull_slo_p99_us)
    report.pull_slo_violations = 1;
  report.samples = offsets.count();
  if (report.samples > 0) {
    // The epoch estimate is the luckiest frame ever observed: jitter is
    // each arrival offset relative to that.
    const double epoch = offsets.min();
    report.jitter_p50_us = offsets.quantile(0.50) - epoch;
    report.jitter_p99_us = offsets.quantile(0.99) - epoch;
    report.jitter_p999_us = offsets.quantile(0.999) - epoch;
    report.jitter_max_us = offsets.max() - epoch;
  }
  if (report.sessions_connected > 0 && rss_after_ramp > rss_before)
    report.rss_per_session_bytes =
        static_cast<double>(rss_after_ramp - rss_before) /
        static_cast<double>(report.sessions_connected);
  if (config.slo_p99_us > 0.0 && report.samples > 0 &&
      report.jitter_p99_us > config.slo_p99_us)
    report.slo_violations = 1;
  return report;
}

}  // namespace tcsa
