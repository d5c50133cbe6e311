#include "obs/admin_server.h"

#include <sys/socket.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace robust_sampling {
namespace obs {

namespace {

// Requests are tiny (a GET line + a handful of headers); anything larger
// is not a scraper and gets 400.
constexpr size_t kMaxRequestBytes = 8192;

bool WriteResponse(int fd, int status, const char* reason,
                   const std::string& content_type, const std::string& body) {
  std::string head = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  return net::SendAll(fd, head.data(), head.size()) &&
         net::SendAll(fd, body.data(), body.size());
}

}  // namespace

AdminServer::AdminServer(AdminServerOptions options)
    : options_(options),
      server_([this](int fd, uint64_t) { ServeConnection(fd); }) {
  RegisterHandler("/metrics", "text/plain; version=0.0.4; charset=utf-8",
                  [] { return MetricRegistry::Global().ToPrometheusText(); });
  RegisterHandler("/healthz", "text/plain; charset=utf-8",
                  [] { return std::string("ok\n"); });
  RegisterHandler("/trace", "text/plain; charset=utf-8", [] {
    std::string out = FlightRecorder::Global().Dump();
    const std::string last_error = FlightRecorder::Global().LastErrorDump();
    if (!last_error.empty()) {
      out += "\n--- last error post-mortem ---\n";
      out += last_error;
    }
    return out;
  });
  RegisterHandler("/trace.json", "application/json", [] {
    return FlightRecorder::Global().DumpChromeTraceJson();
  });
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::RegisterHandler(const std::string& path,
                                  const std::string& content_type,
                                  Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[path] = Endpoint{content_type, std::move(handler)};
}

bool AdminServer::Start(std::string* error) {
  return server_.Start(options_.port, error);
}

void AdminServer::Stop() { server_.Stop(); }

void AdminServer::ServeConnection(int fd) {
  // Read until the end of the request headers; the body (none expected for
  // GET) is ignored.
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF, deadline, or error: serve what we have
    request.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = request.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const size_t method_end = request_line.find(' ');
  if (method_end == std::string::npos) {
    WriteResponse(fd, 400, "Bad Request", "text/plain; charset=utf-8",
                  "malformed request line\n");
    return;
  }
  const std::string method = request_line.substr(0, method_end);
  const size_t target_end = request_line.find(' ', method_end + 1);
  std::string target =
      target_end == std::string::npos
          ? request_line.substr(method_end + 1)
          : request_line.substr(method_end + 1, target_end - method_end - 1);
  const size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  if (method != "GET") {
    WriteResponse(fd, 405, "Method Not Allowed", "text/plain; charset=utf-8",
                  "only GET is served here\n");
    return;
  }
  Endpoint endpoint;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    const auto it = handlers_.find(target);
    if (it == handlers_.end()) {
      std::string known = "unknown path; try:\n";
      for (const auto& [path, unused] : handlers_) known += "  " + path + "\n";
      WriteResponse(fd, 404, "Not Found", "text/plain; charset=utf-8", known);
      return;
    }
    endpoint = it->second;
  }
  WriteResponse(fd, 200, "OK", endpoint.content_type, endpoint.handler());
}

}  // namespace obs
}  // namespace robust_sampling
