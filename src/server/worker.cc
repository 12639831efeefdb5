// Worker pool: each worker claims one queued connection and serves it
// to completion — read bytes, peel off complete frames, dispatch, and
// write the response frame — then returns for the next connection.
// Serving is connection-granular: a worker never interleaves two
// sessions, which keeps per-connection state (the receive buffer) free
// of synchronization.

#include <memory>

#include "server/server.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"

namespace hm::server {

void Server::WorkerLoop() {
  while (std::unique_ptr<Session> session = queue_.Pop()) {
    TrackFd(session->fd);
    ServeSession(session.get());
    // Erase-before-close ordering matters: see TrackFd().
    UntrackFd(session->fd);
  }
}

void Server::ServeSession(Session* session) {
  static telemetry::Counter* bytes_in =
      telemetry::Registry::Global().GetCounter("server.net.bytes_in");
  static telemetry::Counter* bytes_out =
      telemetry::Registry::Global().GetCounter("server.net.bytes_out");
  static telemetry::Counter* recv_spun =
      telemetry::Registry::Global().GetCounter("server.recv.spun");
  static telemetry::Counter* recv_blocked =
      telemetry::Registry::Global().GetCounter("server.recv.blocked");
  char chunk[64 * 1024];
  for (;;) {
    // Peel off every complete frame already buffered before reading
    // again — a pipelining client may have several requests in flight.
    for (;;) {
      std::string_view payload;
      size_t frame_len = 0;
      FrameResult result = DecodeFrame(session->buffer, &payload, &frame_len);
      if (result == FrameResult::kIncomplete) break;
      if (result != FrameResult::kOk) return;  // framing lost: hang up
      std::string response;
      Dispatch(session, payload, &response);
      session->buffer.erase(0, frame_len);
      std::string out;
      AppendFrame(&out, response);
      if (HM_FAILPOINT_FIRED("server/conn/drop")) {
        // Drop mid-frame: half a response, then hang up. The client
        // must detect the truncated frame, not consume it.
        (void)WriteAll(session->fd,
                       std::string_view(out).substr(0, out.size() / 2));
        return;
      }
      if (HM_FAILPOINT_FIRED("server/write/error")) return;
      bytes_out->Add(out.size());
      if (!WriteAll(session->fd, out)) return;
    }
    if (HM_FAILPOINT_FIRED("server/read/error")) return;
    Received got = RecvSome(session->fd, chunk, sizeof(chunk));
    (got.spun ? recv_spun : recv_blocked)->Add();
    // Peer closed, error, or Stop() shut our read side down.
    if (got.outcome != RecvOutcome::kData) return;
    bytes_in->Add(got.bytes);
    session->buffer.append(chunk, got.bytes);
  }
}

}  // namespace hm::server
