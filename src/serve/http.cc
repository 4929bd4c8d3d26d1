#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "serve/json.h"
#include "util/net_io.h"

namespace cold::serve {

namespace {

std::string ToLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Reads more bytes into `buffer`; OK(false) on clean EOF. A signal
/// landing mid-recv (EINTR) is retried here rather than surfaced, so
/// callers never mistake an interrupted syscall for progress or EOF.
cold::Result<bool> FillFromSocket(int fd, std::string* buffer) {
  char chunk[4096];
  ssize_t n;
  do {
    n = ::recv(fd, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }
  if (n == 0) return false;
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    return cold::Status::DeadlineExceeded("socket read timeout");
  }
  return cold::Status::IOError(std::string("recv: ") + std::strerror(errno));
}

cold::Status ParseRequestHead(const std::string& head, HttpRequest* out) {
  size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) {
    return cold::Status::InvalidArgument("missing request line");
  }
  const std::string request_line = head.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    return cold::Status::InvalidArgument("malformed request line");
  }
  out->method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  out->version = request_line.substr(sp2 + 1);
  if (out->method.empty() || target.empty() || target[0] != '/') {
    return cold::Status::InvalidArgument("malformed request target");
  }
  if (out->version != "HTTP/1.1" && out->version != "HTTP/1.0") {
    return cold::Status::InvalidArgument("unsupported HTTP version");
  }
  size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    out->path = target;
  } else {
    out->path = target.substr(0, qmark);
    out->query = target.substr(qmark + 1);
  }

  size_t pos = line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) break;
    size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      return cold::Status::InvalidArgument("malformed header line");
    }
    std::string name = ToLower(Trim(line.substr(0, colon)));
    out->headers[name] = Trim(line.substr(colon + 1));
  }
  return cold::Status::OK();
}

/// Full-transfer sends go through the shared EINTR/partial-write-robust
/// loop (util/net_io.h, also used by src/dist's frame transport).
cold::Status WriteAll(int fd, const char* data, size_t size) {
  return cold::WriteFull(fd, data, size);
}

}  // namespace

const std::string* HttpRequest::Header(
    const std::string& lowercase_name) const {
  auto it = headers.find(lowercase_name);
  return it == headers.end() ? nullptr : &it->second;
}

int HttpRequest::QueryInt(const std::string& name, int fallback) const {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    std::string pair = query.substr(pos, amp - pos);
    size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == name) {
      const std::string value = pair.substr(eq + 1);
      errno = 0;
      char* end = nullptr;
      long v = std::strtol(value.c_str(), &end, 10);
      if (errno == 0 && end != value.c_str() && *end == '\0' &&
          v >= INT32_MIN && v <= INT32_MAX) {
        return static_cast<int>(v);
      }
      return fallback;
    }
    pos = amp + 1;
  }
  return fallback;
}

bool HttpRequest::keep_alive() const {
  const std::string* conn = Header("connection");
  if (conn != nullptr) {
    std::string v = ToLower(*conn);
    if (v == "close") return false;
    if (v == "keep-alive") return true;
  }
  return version == "HTTP/1.1";
}

HttpResponse HttpResponse::Text(int code, std::string body,
                                std::string content_type) {
  HttpResponse r;
  r.status_code = code;
  r.body = std::move(body);
  r.content_type = std::move(content_type);
  return r;
}

HttpResponse HttpResponse::Error(int code, const std::string& message) {
  Json payload = Json::MakeObject();
  payload.Set("error", message);
  payload.Set("status", code);
  HttpResponse r;
  r.status_code = code;
  r.body = payload.Dump();
  return r;
}

HttpResponse HttpResponse::FromStatus(const cold::Status& status) {
  int code = 500;
  switch (status.code()) {
    case cold::StatusCode::kInvalidArgument: code = 400; break;
    case cold::StatusCode::kOutOfRange: code = 422; break;
    case cold::StatusCode::kNotFound: code = 404; break;
    case cold::StatusCode::kFailedPrecondition: code = 409; break;
    default: code = 500; break;
  }
  return Error(code, status.ToString());
}

const char* HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

cold::Result<HttpParseState> ParseHttpRequest(std::string* buffer,
                                              HttpRequest* out,
                                              const HttpLimits& limits) {
  // Accumulation is the caller's job; this only decides whether the bytes
  // so far hold a complete (and well-formed, and within-limits) request.
  size_t head_end = buffer->find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (buffer->size() > limits.max_header_bytes) {
      return cold::Status::InvalidArgument("header block too large");
    }
    return HttpParseState::kNeedMore;
  }

  HttpRequest request;
  COLD_RETURN_NOT_OK(
      ParseRequestHead(buffer->substr(0, head_end + 2), &request));

  if (request.Header("transfer-encoding") != nullptr) {
    return cold::Status::InvalidArgument(
        "transfer-encoding is not supported");
  }
  size_t body_size = 0;
  if (const std::string* cl = request.Header("content-length")) {
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(cl->c_str(), &end, 10);
    if (errno != 0 || end == cl->c_str() || *end != '\0') {
      return cold::Status::InvalidArgument("malformed content-length");
    }
    if (v > limits.max_body_bytes) {
      return cold::Status::InvalidArgument("body too large");
    }
    body_size = static_cast<size_t>(v);
  }

  const size_t body_begin = head_end + 4;
  if (buffer->size() - body_begin < body_size) {
    return HttpParseState::kNeedMore;
  }
  request.body = buffer->substr(body_begin, body_size);
  // Pipelined bytes of the next request stay in the buffer.
  buffer->erase(0, body_begin + body_size);
  *out = std::move(request);
  return HttpParseState::kComplete;
}

void AppendHttpResponse(std::string* buffer, const HttpResponse& response,
                        bool close_connection) {
  std::string& out = *buffer;
  out.reserve(out.size() + response.body.size() + 256);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status_code);
  out += ' ';
  out += HttpStatusText(response.status_code);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += close_connection ? "close" : "keep-alive";
  out += "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += response.body;
}

cold::Status WriteHttpResponse(int fd, const HttpResponse& response,
                               bool close_connection) {
  std::string out;
  AppendHttpResponse(&out, response, close_connection);
  return WriteAll(fd, out.data(), out.size());
}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  leftover_.clear();
}

cold::Status HttpClient::Connect(int port, int timeout_ms) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return cold::Status::IOError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    cold::Status st = cold::Status::IOError(std::string("connect: ") +
                                            std::strerror(errno));
    Close();
    return st;
  }
  return cold::Status::OK();
}

cold::Result<HttpClient::Response> HttpClient::Request(
    const std::string& method, const std::string& target,
    const std::string& body) {
  if (fd_ < 0) return cold::Status::FailedPrecondition("not connected");
  std::string out;
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  COLD_RETURN_NOT_OK(WriteAll(fd_, out.data(), out.size()));

  // Reuse the request parser shape: status line looks like a request line
  // with the roles of method/target swapped, so parse by hand.
  std::string buffer = std::move(leftover_);
  leftover_.clear();
  size_t head_end;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    COLD_ASSIGN_OR_RETURN(bool more, FillFromSocket(fd_, &buffer));
    if (!more) return cold::Status::IOError("server closed connection");
    if (buffer.size() > 1 << 20) {
      return cold::Status::IOError("oversized response head");
    }
  }
  Response response;
  {
    size_t line_end = buffer.find("\r\n");
    std::string status_line = buffer.substr(0, line_end);
    size_t sp1 = status_line.find(' ');
    if (sp1 == std::string::npos) {
      return cold::Status::IOError("malformed status line");
    }
    response.status_code = std::atoi(status_line.c_str() + sp1 + 1);
    size_t pos = line_end + 2;
    while (pos < head_end + 2) {
      size_t eol = buffer.find("\r\n", pos);
      std::string line = buffer.substr(pos, eol - pos);
      pos = eol + 2;
      if (line.empty()) break;
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      response.headers[ToLower(Trim(line.substr(0, colon)))] =
          Trim(line.substr(colon + 1));
    }
  }
  size_t body_size = 0;
  auto it = response.headers.find("content-length");
  if (it != response.headers.end()) {
    body_size = static_cast<size_t>(std::strtoull(it->second.c_str(),
                                                  nullptr, 10));
  }
  size_t body_begin = head_end + 4;
  while (buffer.size() - body_begin < body_size) {
    COLD_ASSIGN_OR_RETURN(bool more, FillFromSocket(fd_, &buffer));
    if (!more) return cold::Status::IOError("server closed mid-body");
  }
  response.body = buffer.substr(body_begin, body_size);
  leftover_ = buffer.substr(body_begin + body_size);
  return response;
}

}  // namespace cold::serve
