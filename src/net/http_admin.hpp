// http_admin.hpp — minimal HTTP/1.0 GET responder for the admin plane.
//
// This is not a web server. It is the smallest thing that lets `curl`,
// Prometheus, and `tcsactl stat` ask a live AirServer for a snapshot:
// GET-only, HTTP/1.0 semantics (Content-Length + Connection: close, the
// connection closes after one response), 8 KiB request cap, at most
// kMaxConnections live connections, no keep-alive, no TLS, no chunking.
// It rides the existing single-threaded machinery —
// the listener and every admin connection live on one EventLoop (the
// server registers it on loop 0, next to the airing path, so handlers may
// read loop-0-owned state like the slot clock and watchdog without locks),
// and responses drain through OutQueue like any other egress.
//
// Handlers run on the loop thread and must be snapshot-cheap: they are
// sharing a thread with the slot timer, so a handler that blocks delays
// airing. Scraping the sharded metrics registry and dumping the slot
// timeline are both bounded, allocation-light walks — by design.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/event_loop.hpp"
#include "net/out_queue.hpp"
#include "net/socket.hpp"

namespace tcsa::net {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Handlers get the raw query string (text after '?', possibly empty) and
/// return the response to serialize.
using HttpHandler = std::function<HttpResponse(std::string_view query)>;
/// Exact path -> handler; transparent, so a path view looks up unconverted.
using HttpRoutes = std::map<std::string, HttpHandler, std::less<>>;

/// The admin plane's answer to one complete request (request line and
/// headers through the blank line): 405 unless the method is GET, 400 when
/// no space ends the target, 404 when no route matches the path (the
/// target before any '?'), else the route's handler called with the query.
HttpResponse answer_http_request(std::string_view request,
                                 const HttpRoutes& routes);

class HttpAdmin {
 public:
  /// Live connections kept at once. Admin sockets share the process's
  /// descriptor table with the data plane, so idle ones must not pile up:
  /// a new connection at the cap closes the oldest one not yet answered
  /// (failing that, the oldest), and a fresh scrape still gets through.
  static constexpr std::size_t kMaxConnections = 16;

  /// Binds and listens immediately (port 0 = ephemeral, resolvable via
  /// port() right away); registration with the loop waits for start() so
  /// the owner can finish wiring routes and loop-thread state first.
  HttpAdmin(EventLoop& loop, const std::string& address, std::uint16_t port);
  ~HttpAdmin();
  HttpAdmin(const HttpAdmin&) = delete;
  HttpAdmin& operator=(const HttpAdmin&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Registers a handler for an exact path (e.g. "/metrics"). Unknown
  /// paths get 404. Call before start().
  void route(const std::string& path, HttpHandler handler);

  /// Registers the listener with the loop. Loop-thread (or pre-loop) only.
  void start();

  /// Re-adds a listener that ran out of descriptors (off the loop so it
  /// cannot spin). Loop-thread only, once per slot; true if it backed off.
  bool resume_accept();

  /// Removes the listener and every live connection from the loop and
  /// closes them. Loop-thread only; idempotent.
  void shutdown();

  /// Live admin connections (diagnostics/tests). Safe from any thread:
  /// conns_ itself is loop-owned, so this reads a mirrored atomic count.
  std::size_t connections() const noexcept {
    return conn_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    Fd fd;
    std::string request;  ///< bytes until the blank line
    OutQueue out;
    bool responded = false;
    std::uint64_t accepted = 0;  ///< accept order, for eviction at the cap
  };

  void on_accept();
  void on_conn_event(int fd, std::uint32_t events);
  void respond(Conn& conn, const HttpResponse& response);
  void flush_conn(Conn& conn);
  void close_conn(int fd);
  void evict_oldest();

  EventLoop& loop_;
  Fd listener_;
  std::uint16_t port_ = 0;
  bool started_ = false;
  bool accept_paused_ = false;  ///< listener off the loop until resume
  HttpRoutes routes_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::uint64_t accepts_ = 0;
  std::atomic<std::size_t> conn_count_{0};  ///< == conns_.size()
};

/// Tiny blocking HTTP/1.0 GET client for the other side of the plane:
/// `tcsactl stat` and the e2e tests. Connects, sends `GET <path>`, reads
/// until EOF, parses the status line + Content-Type. Throws on connect
/// failure, timeout, or a malformed response.
HttpResponse http_get(const std::string& host, std::uint16_t port,
                      const std::string& path, int timeout_ms = 5000);

}  // namespace tcsa::net
