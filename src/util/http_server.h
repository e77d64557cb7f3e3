// Minimal dependency-free HTTP/1.1 server shared by the live observability
// endpoints (the endpoint table in observability.cc) and the online
// matching service (src/serve/ — /match, /dedupe).
//
// Two operating modes, selected by HttpServerOptions::num_workers:
//
//   * Inline (num_workers == 0, the default): a single listener thread
//     blocks in poll()+accept() and handles each request inline — one
//     request in flight at a time, by construction bounded. That is the
//     right trade for an introspection port scraped every few seconds by
//     one collector (DESIGN.md §11): no worker pool to size, no
//     cross-request state, and a slow handler (e.g. /profilez?seconds=5)
//     simply back-pressures the next scrape.
//
//   * Worker pool (num_workers > 0): the listener accepts and pushes
//     client sockets onto a bounded queue drained by `num_workers` handler
//     threads, so multiple requests are genuinely in flight at once — the
//     property the serving path's cross-request dynamic batching depends
//     on (requests must overlap to share a batch). When the queue is full
//     the listener answers 503 immediately and closes: bounded memory,
//     bounded threads, no silent connection buildup (DESIGN.md §12).
//
// Request handling is deliberately small but robust: headers and body are
// assembled across arbitrarily fragmented reads (a request trickling in
// byte-at-a-time parses identically to one arriving whole), bodies are
// read to exactly Content-Length bytes, and every malformed input maps to
// a 4xx (431 oversized headers, 413 oversized body, 400 malformed request
// line or Content-Length, 405 unsupported method) rather than a crash or
// a wedged connection. GET and POST only, no keep-alive (Connection:
// close), short socket timeouts so a stuck peer can't hold a slot forever.
//
// Shutdown is clean and prompt: the accept loop polls with a ~250 ms
// timeout and re-checks a stop flag; Stop() joins the listener, lets the
// workers finish any already-accepted connections, and closes everything.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/request_trace.h"
#include "util/status.h"

namespace emba {
namespace http {

/// Parsed request. `path` is the part before '?', `query` the raw part
/// after it ("" when absent). Header names are lowercased at parse time;
/// `body` holds exactly Content-Length bytes (empty when the header is
/// absent or zero).
struct HttpRequest {
  std::string method;
  std::string path;
  std::string query;
  std::string body;
  /// (lowercased-name, value) in arrival order.
  std::vector<std::pair<std::string, std::string>> headers;

  /// Request-scoped trace context, created by the server when request
  /// tracing (util/request_trace) is enabled; nullptr otherwise — handlers
  /// must treat it as optional. The server owns the lifecycle: it stamps
  /// the parse stage, echoes X-Emba-Trace-Id on the response, and finalizes
  /// the context after the response is sent.
  std::shared_ptr<rtrace::RequestContext> trace;

  /// Value of header `name` (must be given lowercased), or "" when absent.
  std::string Header(const std::string& name) const;
};

struct HttpResponse {
  int status = 200;  ///< 200, 400, 404, 413, 429, 503, ...
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Additional response headers, e.g. {"Retry-After", "1"}.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Returns the value of `key` in a query string ("seconds=2&clock=cpu"),
/// or `fallback` when absent/empty. No %-decoding (values here are numbers
/// and short enum words).
std::string QueryParam(const std::string& query, const std::string& key,
                       const std::string& fallback = "");

struct HttpServerOptions {
  /// 0 = handle requests inline on the listener thread (observability
  /// default); > 0 = that many dedicated handler threads (serving mode).
  int num_workers = 0;
  /// Accepted-but-unhandled connection bound in worker mode; beyond it the
  /// listener answers 503 and closes instead of queueing.
  size_t max_pending = 64;
  /// Requests whose Content-Length exceeds this are answered 413.
  size_t max_body_bytes = 1 << 20;
  /// Header blocks larger than this are answered 431.
  size_t max_header_bytes = 8192;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// `handler` is invoked on the listener thread (inline mode) or on a
  /// worker thread (worker mode) for every well-formed request; it must be
  /// thread-safe when num_workers > 1.
  explicit HttpServer(Handler handler, HttpServerOptions options = {});
  ~HttpServer();  ///< Calls Stop().

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 0.0.0.0:`port` (port 0 = kernel-assigned, see port()) and starts
  /// the listener (and worker) threads. IOError with the errno text on bind
  /// failure — notably "address already in use" when the port is taken.
  Status Start(int port);

  /// Stops the accept loop, drains already-accepted connections through the
  /// workers, and joins every thread. Idempotent.
  void Stop();

  bool Running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves port 0 to the actual ephemeral port).
  /// 0 before a successful Start().
  int port() const { return port_; }

  /// Client sockets currently open (accepted and not yet closed). Returns
  /// to 0 when the server is idle — the "no leaked connection slot"
  /// invariant the fault-injection tests assert.
  int OpenConnections() const {
    return open_connections_.load(std::memory_order_acquire);
  }

  /// Connections the listener refused with an immediate 503 because the
  /// pending queue was full (worker mode only).
  uint64_t RefusedConnections() const {
    return refused_connections_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int client_fd);

  Handler handler_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<int> open_connections_{0};
  std::atomic<uint64_t> refused_connections_{0};
  std::thread listener_;

  // Worker mode: accepted fds awaiting a handler thread.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;
  bool workers_stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace http
}  // namespace emba
