#include "net/http_admin.hpp"

#include <poll.h>
#include <strings.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace tcsa::net {
namespace {

/// A request line plus a handful of headers; anything bigger is not an
/// admin scrape.
constexpr std::size_t kMaxRequestBytes = 8 * 1024;

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string serialize_head(const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + ' ' +
                    reason_phrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  return out;
}

/// Bodies are queued in buffers of at most this size. A /metrics scrape
/// grows with the registry (histograms alone are a dozen lines each), so
/// responses must not assume they fit any fixed cap — chunking bounds the
/// largest single allocation and lets flush_queue write the rest as the
/// socket drains.
constexpr std::size_t kResponseChunk = 16 * 1024;

}  // namespace

HttpResponse answer_http_request(std::string_view request,
                                 const HttpRoutes& routes) {
  const std::string_view line = request.substr(0, request.find("\r\n"));
  if (line.substr(0, 4) != "GET ")
    return {405, "text/plain; charset=utf-8", "GET only\n"};
  std::string_view target = line.substr(4);
  const std::size_t space = target.find(' ');
  if (space == std::string_view::npos)
    return {400, "text/plain; charset=utf-8", "malformed request line\n"};
  target = target.substr(0, space);
  std::string_view query;
  if (const std::size_t qmark = target.find('?');
      qmark != std::string_view::npos) {
    query = target.substr(qmark + 1);
    target = target.substr(0, qmark);
  }
  const auto route = routes.find(target);
  if (route == routes.end())
    return {404, "text/plain; charset=utf-8", "unknown path\n"};
  return route->second(query);
}

HttpAdmin::HttpAdmin(EventLoop& loop, const std::string& address,
                     std::uint16_t port)
    : loop_(loop), listener_(listen_tcp(address, port)) {
  port_ = local_port(listener_.get());
}

HttpAdmin::~HttpAdmin() { shutdown(); }

void HttpAdmin::route(const std::string& path, HttpHandler handler) {
  TCSA_REQUIRE(!started_, "http admin: route() after start()");
  routes_[path] = std::move(handler);
}

void HttpAdmin::start() {
  if (started_) return;
  started_ = true;
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

bool HttpAdmin::resume_accept() {
  if (!std::exchange(accept_paused_, false)) return false;
  if (started_)
    loop_.add(listener_.get(), EPOLLIN, [this](auto) { on_accept(); });
  return true;
}

void HttpAdmin::shutdown() {
  if (!started_) {
    conns_.clear();
    conn_count_.store(0, std::memory_order_relaxed);
    return;
  }
  started_ = false;
  loop_.remove(listener_.get());
  for (auto& [fd, conn] : conns_) loop_.remove(fd);
  conns_.clear();
  conn_count_.store(0, std::memory_order_relaxed);
}

void HttpAdmin::on_accept() {
  // Drain the accept queue: epoll is level-triggered here, but one pass
  // per wakeup keeps the handler bounded anyway.
  while (true) {
    bool backoff = false;
    Fd fd = accept_connection(listener_.get(), &backoff);
    if (backoff) {
      // Out of descriptors: the level-triggered listener would wake the
      // loop again at once, so it leaves epoll until resume_accept().
      loop_.remove(listener_.get());
      accept_paused_ = true;
      return;
    }
    if (!fd.valid()) return;
    if (conns_.size() >= kMaxConnections) evict_oldest();
    const int raw = fd.get();
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(fd);
    conn->accepted = accepts_++;
    conns_.emplace(raw, std::move(conn));
    conn_count_.store(conns_.size(), std::memory_order_relaxed);
    loop_.add(raw, EPOLLIN,
              [this, raw](std::uint32_t events) { on_conn_event(raw, events); });
  }
}

void HttpAdmin::on_conn_event(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_conn(fd);
    return;
  }
  if ((events & EPOLLIN) != 0 && !conn.responded) {
    char buf[2048];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.request.append(buf, static_cast<std::size_t>(n));
        if (conn.request.size() > kMaxRequestBytes) {
          respond(conn, {400, "text/plain; charset=utf-8", "request too large\n"});
          break;
        }
        continue;
      }
      if (n == 0) {  // peer closed before finishing a request
        close_conn(fd);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(fd);
      return;
    }
    // A complete request = headers terminated by a blank line. GET carries
    // no body, so nothing after it matters.
    if (!conn.responded &&
        conn.request.find("\r\n\r\n") != std::string::npos) {
      respond(conn, answer_http_request(conn.request, routes_));
    }
  }
  if (conn.responded) flush_conn(conn);
}

void HttpAdmin::respond(Conn& conn, const HttpResponse& response) {
  conn.responded = true;
  conn.out.push(SharedBuf::wrap(serialize_head(response)));
  for (std::size_t off = 0; off < response.body.size();
       off += kResponseChunk)
    conn.out.push(SharedBuf::wrap(
        response.body.substr(off, kResponseChunk)));
}

void HttpAdmin::flush_conn(Conn& conn) {
  const int fd = conn.fd.get();
  const FlushResult result = flush_queue(fd, conn.out);
  if (result.error != 0 || conn.out.empty()) {
    close_conn(fd);
    return;
  }
  // Still backlogged: wait for writability (reads are done — HTTP/1.0,
  // one request per connection).
  loop_.modify(fd, EPOLLOUT);
}

void HttpAdmin::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  loop_.remove(fd);
  conns_.erase(it);  // Fd destructor closes
  conn_count_.store(conns_.size(), std::memory_order_relaxed);
}

void HttpAdmin::evict_oldest() {
  // Unanswered first: an answered connection is only draining its reply.
  const Conn* victim = nullptr;
  for (const auto& [fd, conn] : conns_) {
    if (victim == nullptr ||
        std::pair(conn->responded, conn->accepted) <
            std::pair(victim->responded, victim->accepted))
      victim = conn.get();
  }
  if (victim != nullptr) close_conn(victim->fd.get());
}

// ------------------------------------------------------------- client side

HttpResponse http_get(const std::string& host, std::uint16_t port,
                      const std::string& path, int timeout_ms) {
  Fd fd = connect_tcp(host, port);
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd.get(), request.data() + sent, request.size() - sent,
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("http_get: send: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  while (true) {
    struct pollfd pfd = {fd.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("http_get: poll: ") +
                               std::strerror(errno));
    }
    if (ready == 0) throw std::runtime_error("http_get: response timed out");
    char buf[4096];
    const ssize_t n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("http_get: recv: ") +
                               std::strerror(errno));
    }
    if (n == 0) break;  // HTTP/1.0: EOF ends the response
    raw.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos)
    throw std::runtime_error("http_get: truncated response (no header end)");
  const std::string_view head(raw.data(), header_end);
  if (head.substr(0, 9) != "HTTP/1.0 " && head.substr(0, 9) != "HTTP/1.1 ")
    throw std::runtime_error("http_get: not an HTTP response");
  HttpResponse response;
  response.status = std::atoi(raw.c_str() + 9);
  if (response.status < 100 || response.status > 599)
    throw std::runtime_error("http_get: bad status line");
  response.content_type.clear();
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos < head.size()) {
    const std::size_t next = head.find("\r\n", pos + 2);
    const std::string_view line =
        head.substr(pos + 2, (next == std::string_view::npos ? head.size()
                                                             : next) -
                                 (pos + 2));
    constexpr std::string_view kCt = "Content-Type:";
    if (line.size() > kCt.size() &&
        ::strncasecmp(line.data(), kCt.data(), kCt.size()) == 0) {
      std::string_view value = line.substr(kCt.size());
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      response.content_type = std::string(value);
    }
    pos = next;
  }
  response.body = raw.substr(header_end + 4);
  return response;
}

}  // namespace tcsa::net
