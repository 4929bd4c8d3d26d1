// HTTP/1.1 wire types for the serving layer: incremental request parsing
// over a buffer, response serialization, and a tiny loopback client used
// by tests and examples. Dependency-free (POSIX sockets only).
//
// The parser is deliberately strict and bounded: header block and body
// sizes are capped, unsupported transfer encodings are rejected, and any
// malformed input yields a Status the server maps to a 4xx — never a crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace cold::serve {

/// \brief Parsed request line + headers + body.
struct HttpRequest {
  std::string method;   // "GET", "POST", ... (uppercase as sent).
  std::string path;     // Path component, query string stripped.
  std::string query;    // Raw query string (no leading '?'), may be empty.
  std::string version;  // "HTTP/1.1".
  /// Header names lowercased; values trimmed of surrounding whitespace.
  std::map<std::string, std::string> headers;
  std::string body;

  /// \brief Case-insensitive header lookup (name must be lowercase).
  const std::string* Header(const std::string& lowercase_name) const;

  /// \brief Query parameter lookup ("n" in "?n=5&topic=2"); `fallback`
  /// when absent or not an integer.
  int QueryInt(const std::string& name, int fallback) const;

  /// True when the client asked to keep the connection open (HTTP/1.1
  /// default unless `Connection: close`).
  bool keep_alive() const;
};

/// \brief Status code + headers + body; serialized by the server.
struct HttpResponse {
  int status_code = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers (Content-Length/Content-Type/Connection are managed by
  /// the server).
  std::map<std::string, std::string> headers;

  static HttpResponse Text(int code, std::string body,
                           std::string content_type = "text/plain");
  /// JSON body `{"error": <message>, "code": <status name>}`.
  static HttpResponse Error(int code, const std::string& message);
  /// Maps a non-OK Status to 400/404/422/500 by code.
  static HttpResponse FromStatus(const cold::Status& status);
};

/// Reason phrase for a status code ("OK", "Not Found", ...).
const char* HttpStatusText(int code);

/// \brief Limits enforced while reading one request.
struct HttpLimits {
  size_t max_header_bytes = 16 * 1024;
  size_t max_body_bytes = 4 * 1024 * 1024;
};

/// \brief Outcome of one incremental parse attempt.
enum class HttpParseState { kNeedMore, kComplete };

/// \brief Incremental, socket-free request parse over an accumulated
/// buffer. On kComplete `*out` holds the request and its bytes are erased
/// from the front of `*buffer` (pipelined bytes remain); on kNeedMore the
/// buffer is untouched. Malformed or over-limit input yields
/// InvalidArgument.
cold::Result<HttpParseState> ParseHttpRequest(std::string* buffer,
                                              HttpRequest* out,
                                              const HttpLimits& limits = {});

/// \brief Serializes `response` onto the end of `*out` — the event loop's
/// write-buffer path; WriteHttpResponse wraps it with a blocking send.
/// `close_connection` controls the Connection header.
void AppendHttpResponse(std::string* out, const HttpResponse& response,
                        bool close_connection);

/// \brief Serializes and writes `response` to `fd`; `close_connection`
/// controls the Connection header.
cold::Status WriteHttpResponse(int fd, const HttpResponse& response,
                               bool close_connection);

/// \brief Minimal blocking HTTP/1.1 client for tests, examples and smoke
/// checks: one connection, sequential request/response, keep-alive.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:`port`.
  cold::Status Connect(int port, int timeout_ms = 5000);
  void Close();
  bool connected() const { return fd_ >= 0; }

  struct Response {
    int status_code = 0;
    std::map<std::string, std::string> headers;
    std::string body;
  };

  /// \brief Sends one request and reads the response. `body` is sent with
  /// Content-Length; empty string sends no body (use for GET).
  cold::Result<Response> Request(const std::string& method,
                                 const std::string& target,
                                 const std::string& body = "");

  cold::Result<Response> Get(const std::string& target) {
    return Request("GET", target);
  }
  cold::Result<Response> Post(const std::string& target,
                              const std::string& body) {
    return Request("POST", target, body);
  }

 private:
  int fd_ = -1;
  std::string leftover_;
};

}  // namespace cold::serve
