#ifndef ROBUST_SAMPLING_OBS_ADMIN_SERVER_H_
#define ROBUST_SAMPLING_OBS_ADMIN_SERVER_H_

// ---------------------------------------------------------------------------
// Admin plane: a minimal dependency-free HTTP/1.0 server that makes the
// in-process observability state (metric registry, flight recorder, and
// whatever the embedding service registers) scrapeable while the process
// runs, instead of trapped until a --metrics dump at exit.
//
// Connections come from net::LoopbackServer, the accept loop the collector
// and the fault proxy share: each connection gets its own thread, which
// serves one request (HTTP/1.0, Connection: close) under socket deadlines
// on both directions, and finished threads are joined before the next
// accept. A stalled scraper therefore holds only its own thread, for at
// most the per-connection timeout; /healthz keeps answering meanwhile.
// Responses go through net::SendAll (send with MSG_NOSIGNAL), same as the
// shipping path.
//
// Built-in endpoints (all GET):
//   /metrics     Prometheus text exposition (MetricRegistry).
//   /healthz     "ok" — liveness.
//   /trace       flight-recorder dump + the last RecordError post-mortem.
//   /trace.json  chrome-trace JSON (load in Perfetto / chrome://tracing).
//
// Services add their own views with RegisterHandler ("/shippers" on
// Collector<T> is the first embedder). The server binds loopback only: it
// is an operator plane, not a public surface. Works identically under
// RS_METRICS=OFF — the exports are just empty. See docs/observability.md.
// ---------------------------------------------------------------------------

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "net/socket_io.h"

namespace robust_sampling {
namespace obs {

struct AdminServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port() after Start).
  uint16_t port = 0;
};

class AdminServer {
 public:
  /// A handler renders the current body for its path on every request.
  /// Each connection runs on its own thread, so a handler must be
  /// thread-safe: it runs concurrently with itself, with other handlers,
  /// and with the embedding service's own threads.
  using Handler = std::function<std::string()>;

  explicit AdminServer(AdminServerOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds, listens, and starts accepting. Returns false (with a reason
  /// in *error when given) if the port cannot be bound.
  bool Start(std::string* error = nullptr);

  /// Stops accepting, closes the listening socket, and joins every
  /// connection. Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (resolves port=0 ephemeral binds); 0 when stopped.
  uint16_t port() const { return server_.port(); }

  /// Registers (or replaces) `GET path` -> 200 with `content_type`. The
  /// built-in endpoints are registered at construction and can be
  /// overridden the same way.
  void RegisterHandler(const std::string& path, const std::string& content_type,
                       Handler handler);

 private:
  struct Endpoint {
    std::string content_type;
    Handler handler;
  };

  void ServeConnection(int fd);

  AdminServerOptions options_;

  std::mutex handlers_mu_;
  std::map<std::string, Endpoint> handlers_;

  // Declared after the handlers its connection threads use.
  net::LoopbackServer server_;
};

}  // namespace obs
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_OBS_ADMIN_SERVER_H_
