#include "util/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/logging.h"

namespace emba {
namespace http {

namespace {

constexpr int kPollTimeoutMs = 250;  // stop-flag re-check cadence

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

void SetSocketTimeouts(int fd) {
  // A stalled peer must not hold a handler (or the single listener) thread
  // forever.
  struct timeval tv;
  tv.tv_sec = 5;
  tv.tv_usec = 0;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SendResponse(int fd, const HttpResponse& resp) {
  std::ostringstream out;
  out << "HTTP/1.1 " << resp.status << " " << StatusText(resp.status)
      << "\r\nContent-Type: " << resp.content_type
      << "\r\nContent-Length: " << resp.body.size();
  for (const auto& [name, value] : resp.extra_headers) {
    out << "\r\n" << name << ": " << value;
  }
  out << "\r\nConnection: close\r\n\r\n";
  const std::string header = out.str();
  if (SendAll(fd, header.data(), header.size())) {
    SendAll(fd, resp.body.data(), resp.body.size());
  }
}

HttpResponse SimpleError(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = message + "\n";
  return resp;
}

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

// Strips optional leading/trailing spaces and tabs (header values).
std::string TrimWs(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string HttpRequest::Header(const std::string& name) const {
  for (const auto& [n, v] : headers) {
    if (n == name) return v;
  }
  return {};
}

std::string QueryParam(const std::string& query, const std::string& key,
                       const std::string& fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      const std::string value = query.substr(eq + 1, amp - eq - 1);
      if (!value.empty()) return value;
    }
    pos = amp + 1;
  }
  return fallback;
}

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(options) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(int port) {
  if (Running()) {
    return Status::FailedPrecondition("HTTP server already running");
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("bind(port " + std::to_string(port) + "): " + err);
  }
  if (listen(fd, /*backlog=*/64) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("listen(): " + err);
  }
  // Resolve port 0 to the kernel-assigned ephemeral port (tests rely on
  // this to avoid port collisions).
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }

  listen_fd_ = fd;
  stop_requested_.store(false, std::memory_order_release);
  workers_stop_ = false;
  running_.store(true, std::memory_order_release);
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  listener_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire) && !listener_.joinable()) {
    return;
  }
  stop_requested_.store(true, std::memory_order_release);
  if (listener_.joinable()) listener_.join();
  // Workers drain connections the listener already accepted (each one is a
  // live peer owed an answer), then exit; the pending queue is bounded so
  // this is prompt.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void HttpServer::AcceptLoop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = poll(&pfd, 1, kPollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      EMBA_LOG(WARN) << "http server poll() failed: " << std::strerror(errno)
                     << "; stopping";
      break;
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    SetSocketTimeouts(client);
    open_connections_.fetch_add(1, std::memory_order_acq_rel);
    if (options_.num_workers <= 0) {
      HandleConnection(client);
      close(client);
      open_connections_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    // Worker mode: hand off, or refuse outright when the pending queue is
    // at its bound — bounded memory beats unbounded accept buildup.
    bool refused = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_.size() >= options_.max_pending) {
        refused = true;
      } else {
        pending_.push_back(client);
      }
    }
    if (refused) {
      refused_connections_.fetch_add(1, std::memory_order_relaxed);
      SendResponse(client, SimpleError(503, "server overloaded"));
      close(client);
      open_connections_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int client = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !pending_.empty(); });
      if (pending_.empty()) return;  // workers_stop_ and nothing left
      client = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(client);
    close(client);
    open_connections_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void HttpServer::HandleConnection(int client_fd) {
  // Request-scoped tracing starts at connection handling (nullptr — one
  // relaxed load — when disabled). Everything until the handler runs is the
  // "parse" stage. The context is finished when the response is ready, just
  // before the socket write, so a client holding its response always finds
  // the record on /rpcz and in the access log; e2e covers socket read
  // through the ready response. A `return` before any response (disconnect,
  // timeout) finishes with status 0 (an abort).
  std::shared_ptr<rtrace::RequestContext> ctx = rtrace::StartRequest();
  const auto respond = [&](HttpResponse resp) {
    if (ctx != nullptr) {
      resp.extra_headers.emplace_back("X-Emba-Trace-Id",
                                      ctx->trace_id_hex());
      rtrace::FinishRequest(ctx, resp.status);
      ctx.reset();
    }
    SendResponse(client_fd, resp);
  };
  struct Finalizer {
    std::shared_ptr<rtrace::RequestContext>& ctx;
    ~Finalizer() { rtrace::FinishRequest(ctx, /*status=*/0); }
  } finalizer{ctx};

  // Phase 1: assemble the header block. recv() returns whatever bytes have
  // arrived — a request trickling in byte-at-a-time must parse identically
  // to one arriving whole, so we loop until the terminator shows up.
  std::string buf;
  char chunk[2048];
  size_t header_end = std::string::npos;
  while ((header_end = buf.find("\r\n\r\n")) == std::string::npos) {
    if (buf.size() > options_.max_header_bytes) {
      respond(SimpleError(431, "header block too large"));
      return;
    }
    const ssize_t n = recv(client_fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return;  // timeout, mid-request disconnect, or reset:
                         // nothing well-formed to answer — close cleanly
    buf.append(chunk, static_cast<size_t>(n));
  }
  if (header_end > options_.max_header_bytes) {
    respond(SimpleError(431, "header block too large"));
    return;
  }

  // Phase 2: request line + headers.
  HttpRequest req;
  const size_t line_end = buf.find("\r\n");
  std::istringstream line(buf.substr(0, line_end));
  std::string target, version;
  if (!(line >> req.method >> target >> version) ||
      version.rfind("HTTP/", 0) != 0) {
    respond(SimpleError(400, "malformed request line"));
    return;
  }
  if (req.method != "GET" && req.method != "POST") {
    respond(SimpleError(405, "only GET and POST are supported"));
    return;
  }
  const size_t q = target.find('?');
  req.path = target.substr(0, q);
  req.query = q == std::string::npos ? "" : target.substr(q + 1);
  if (ctx != nullptr) ctx->SetEndpoint(req.path);

  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string header_line = buf.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = header_line.find(':');
    if (colon == std::string::npos) {
      respond(SimpleError(400, "malformed header line"));
      return;
    }
    req.headers.emplace_back(ToLower(header_line.substr(0, colon)),
                             TrimWs(header_line.substr(colon + 1)));
  }

  // Phase 3: body, exactly Content-Length bytes. Any prefix beyond the
  // header terminator already sits in `buf`; the rest is read in a loop —
  // the kernel owes us no particular packetization.
  size_t content_length = 0;
  const std::string length_str = req.Header("content-length");
  if (!length_str.empty()) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(length_str.c_str(), &end,
                                                    10);
    if (end == length_str.c_str() || *end != '\0' || errno == ERANGE) {
      respond(SimpleError(400, "malformed Content-Length"));
      return;
    }
    content_length = static_cast<size_t>(parsed);
  }
  if (content_length > options_.max_body_bytes) {
    respond(SimpleError(413, "request body too large"));
    return;
  }
  if (ToLower(req.Header("expect")) == "100-continue") {
    // curl waits for this before sending larger bodies.
    static const char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
    if (!SendAll(client_fd, kContinue, sizeof(kContinue) - 1)) return;
  }
  req.body = buf.substr(header_end + 4);
  if (req.body.size() > content_length) req.body.resize(content_length);
  while (req.body.size() < content_length) {
    const size_t want = std::min(sizeof(chunk),
                                 content_length - req.body.size());
    const ssize_t n = recv(client_fd, chunk, want, 0);
    if (n <= 0) return;  // body never completed; close cleanly
    req.body.append(chunk, static_cast<size_t>(n));
  }

  if (ctx != nullptr) {
    // Socket read + HTTP parse time; the handler may add its body parse.
    ctx->AddStageNs(rtrace::Stage::kParse,
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        rtrace::Clock::now() - ctx->start())
                        .count());
    req.trace = ctx;
  }
  respond(handler_(req));
}

}  // namespace http
}  // namespace emba
