#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <thread>

#include "spans.hpp"
#include "util/wire.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kRecvBuffer = 256 * 1024;

/// Reads what the socket holds and feeds every complete frame to the
/// receiver. Returns false when the server closed the connection. With
/// `decode_ns` non-null, time inside FrameDecoder is added to it.
bool drain_socket(Session& s, std::vector<char>& buf, std::int64_t* decode_ns,
                  std::uint64_t* decoded) {
  for (;;) {
    const ssize_t n = ::recv(s.fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    const std::int64_t now = spans::now_ns();
    tcsa::net::Frame frame;
    if (decode_ns == nullptr) {
      s.decoder.feed(std::string_view(buf.data(), static_cast<std::size_t>(n)));
      while (s.decoder.next(frame)) s.rx->on_frame(frame, now);
      continue;
    }
    std::int64_t t0 = spans::now_ns();
    s.decoder.feed(std::string_view(buf.data(), static_cast<std::size_t>(n)));
    for (;;) {
      const bool more = s.decoder.next(frame);
      const std::int64_t t1 = spans::now_ns();
      *decode_ns += t1 - t0;
      if (!more) break;
      ++*decoded;
      s.rx->on_frame(frame, now);
      t0 = spans::now_ns();
    }
  }
}

void flush_outbox(Session& s) {
  std::string& out = s.rx->outbox();
  if (out.empty()) return;
  spans::Span span("client.send");
  send_bytes(s, out);
  out.clear();
}

struct ThreadResult {
  PhaseStats stats;
  std::exception_ptr error;
};

void client_thread(std::vector<Session*> sessions, const PhaseClock& clock,
                   ThreadResult& result) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (ep < 0 || tfd < 0) throw std::runtime_error("epoll/timerfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = sessions.size();
  ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &ev);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, sessions[i]->fd, &ev);
  }
  std::vector<char> buf(kRecvBuffer);
  const bool traced = spans::enabled();
  PhaseStats& st = result.stats;
  const std::int64_t begin = spans::now_ns();
  std::int64_t waited_ns = 0;
  bool recording = false;
  epoll_event events[8];

  const auto live = [](const Session* s) {
    return !s->closed && s->violation.empty();
  };
  const auto fail = [](Session* s, const std::string& what) {
    if (s->violation.empty()) s->violation = what;
  };

  for (;;) {
    std::int64_t now = spans::now_ns();
    if (!recording && now >= clock.start_ns) {
      recording = true;
      for (Session* s : sessions) s->rx->set_recording(true);
    }
    if (recording && now >= clock.end_ns) {
      for (Session* s : sessions) s->rx->set_recording(false);
    }
    // Open every request that has come due.
    std::int64_t next_due = clock.end_ns;
    for (Session* s : sessions) {
      if (!live(s) || s->arrivals == nullptr) continue;
      const std::vector<Arrival>& arr = *s->arrivals;
      try {
        spans::Span span("client.open");
        while (s->next < arr.size()) {
          const std::int64_t due = clock.start_ns + arr[s->next].due_ns;
          if (due > now || due >= clock.end_ns) break;
          s->rx->open(arr[s->next].page, arr[s->next].patience, due, now);
          st.send_lateness_us.push_back(static_cast<double>(now - due) / 1e3);
          ++s->next;
        }
        flush_outbox(*s);
      } catch (const std::exception& e) {
        fail(s, e.what());
      }
      if (s->next < arr.size())
        next_due = std::min(next_due, clock.start_ns + arr[s->next].due_ns);
    }
    if (now >= clock.end_ns) {
      bool outstanding = false;
      for (const Session* s : sessions)
        if (live(s) && s->rx->outstanding()) outstanding = true;
      if (!outstanding || now >= clock.drain_ns) break;
      next_due = clock.drain_ns;
    }
    if (!recording) next_due = std::min(next_due, clock.start_ns);
    itimerspec its{};
    its.it_value.tv_sec = next_due / 1'000'000'000;
    its.it_value.tv_nsec = next_due % 1'000'000'000;
    ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);

    const std::int64_t wait_start = spans::now_ns();
    int n = 0;
    {
      spans::Span span("client.wait");
      n = ::epoll_wait(ep, events, 8, 1000);
    }
    waited_ns += spans::now_ns() - wait_start;
    if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
    for (int i = 0; i < n; ++i) {
      const std::size_t idx = events[i].data.u64;
      if (idx == sessions.size()) {
        std::uint64_t ticks = 0;
        [[maybe_unused]] const ssize_t r = ::read(tfd, &ticks, sizeof ticks);
        continue;
      }
      Session* s = sessions[idx];
      if (!live(s)) {
        ::epoll_ctl(ep, EPOLL_CTL_DEL, s->fd, nullptr);
        continue;
      }
      try {
        spans::Span span("client.recv_batch");
        if (!drain_socket(*s, buf, traced ? &st.decode_ns : nullptr,
                          &st.decoded)) {
          s->closed = true;
          ::epoll_ctl(ep, EPOLL_CTL_DEL, s->fd, nullptr);
        }
        flush_outbox(*s);
      } catch (const std::exception& e) {
        fail(s, e.what());
        ::epoll_ctl(ep, EPOLL_CTL_DEL, s->fd, nullptr);
      }
    }
  }
  const std::int64_t wall = spans::now_ns() - begin;
  st.busy_ratio_max = wall > 0 ? static_cast<double>(wall - waited_ns) /
                                     static_cast<double>(wall)
                               : 0.0;
  ::close(tfd);
  ::close(ep);
}

}  // namespace

Session::~Session() {
  if (fd >= 0) ::close(fd);
}

void send_bytes(Session& session, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(session.fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{session.fd, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      throw std::runtime_error("send failed");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::unique_ptr<Session> connect_session(std::uint16_t port,
                                         Registry& registry,
                                         std::uint32_t slot_us,
                                         std::uint32_t tag, bool exact_check,
                                         std::uint64_t mask) {
  auto s = std::make_unique<Session>();
  s->rx = std::make_unique<Receiver>(registry, slot_us, tag, exact_check);
  s->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (s->fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(s->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw std::runtime_error("connect failed");
  const int one = 1;
  ::setsockopt(s->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  Receiver& rx = *s->rx;
  pump_until(*s, [&rx] { return rx.greeted(); }, 60.0);
  std::string payload;
  tcsa::wire_put_u64(payload, mask);
  std::string frame;
  tcsa::net::append_frame(frame, tcsa::net::FrameType::kTune, payload);
  send_bytes(*s, frame);
  return s;
}

void pump_until(Session& session, const std::function<bool()>& done,
                double timeout_s) {
  const std::int64_t deadline =
      spans::now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  std::vector<char> buf(kRecvBuffer);
  while (!done()) {
    const std::int64_t left = deadline - spans::now_ns();
    if (left <= 0) throw std::runtime_error("timed out waiting for the server");
    pollfd p{session.fd, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left / 1'000'000) + 1);
    if (r < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (r <= 0) continue;
    if (!drain_socket(session, buf, nullptr, nullptr)) {
      session.closed = true;
      throw std::runtime_error("server closed the session");
    }
    flush_outbox(session);
  }
}

PhaseStats run_phase(const std::vector<Session*>& sessions,
                     const PhaseClock& clock,
                     const std::function<void()>& during) {
  std::vector<std::vector<Session*>> parts(kClientThreads);
  for (std::size_t i = 0; i < sessions.size(); ++i)
    parts[i * kClientThreads / sessions.size()].push_back(sessions[i]);
  std::vector<ThreadResult> results(kClientThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) {
    if (parts[t].empty()) continue;
    threads.emplace_back([&parts, &clock, &results, t] {
      try {
        client_thread(parts[t], clock, results[t]);
      } catch (...) {
        results[t].error = std::current_exception();
      }
    });
  }
  try {
    during();
  } catch (...) {
    for (std::thread& th : threads) th.join();
    throw;
  }
  for (std::thread& th : threads) th.join();
  for (const ThreadResult& r : results)
    if (r.error) std::rethrow_exception(r.error);
  PhaseStats total;
  for (const ThreadResult& r : results) {
    total.busy_ratio_max =
        std::max(total.busy_ratio_max, r.stats.busy_ratio_max);
    total.decode_ns += r.stats.decode_ns;
    total.decoded += r.stats.decoded;
    total.send_lateness_us.insert(total.send_lateness_us.end(),
                                  r.stats.send_lateness_us.begin(),
                                  r.stats.send_lateness_us.end());
  }
  return total;
}

}  // namespace perfbench
