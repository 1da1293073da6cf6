#include "serve_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "engine/engine.h"
#include "net/http.h"
#include "report/render.h"
#include "store/persist.h"

namespace perfbench {
namespace {

/// Every kind is offered at this one rate, in requests per second.  Two
/// `hv serve` workers on a 4-vCPU Xeon VM served 11.5k-16k req/s of ~2 KB
/// pages, and the corpus's largest pages are about 3 KB, so every kind's
/// phase measures latency well below capacity, not queueing.
constexpr double kReferenceRps = 2000.0;

/// Timed seconds per request kind: about 4000 requests, so a p99 has 40
/// samples beyond it.
constexpr double kPhaseSeconds = 2.0;

/// Generator lateness above this marks a phase invalid: the offered load
/// was not the schedule's.
constexpr double kMaxLateMs = 2.0;

/// The request kinds, each probed on its own so that no traffic mix has
/// to be assumed: a sample of the corpus's pages to POST /check, the same
/// pages to /check?fix=1, the corpus's largest pages to POST /check, and
/// GET /query/domain/<d> against the sealed results.
enum class Kind : std::uint8_t { kCheck, kFix, kLarge, kQuery };
constexpr Kind kKinds[] = {Kind::kCheck, Kind::kFix, Kind::kLarge, Kind::kQuery};

const char* kind_name(Kind kind) {
  static const char* const kNames[] = {"check", "fix", "large", "query"};
  return kNames[static_cast<int>(kind)];
}

/// Root span name of one request of `kind`.
const char* span_name(Kind kind) {
  static const char* const kNames[] = {"serve.check", "serve.fix", "serve.large",
                                       "serve.query"};
  return kNames[static_cast<int>(kind)];
}

/// One distinct request, with the response it must get.
struct Entry {
  std::string wire;
  std::string expected;  ///< response body rendered locally
  double local_us = 0;   ///< local engine (or query) time for the same work
};

/// What write_serve_inputs left in pool.bin: a sample of the corpus's
/// HTML pages ("B"), its largest HTML pages ("L") and the domains the
/// results know ("D").
struct Pool {
  std::vector<std::string> bodies;
  std::vector<std::string> large;
  std::vector<std::string> domains;
};

Pool read_pool(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  Pool pool;
  std::string tag;
  while (in >> tag) {
    if (tag == "B" || tag == "L") {
      std::size_t size = 0;
      in >> size;
      in.get();
      std::string body(size, '\0');
      in.read(body.data(), static_cast<std::streamsize>(size));
      in.get();
      (tag == "B" ? pool.bodies : pool.large).push_back(std::move(body));
    } else if (tag == "D") {
      std::string domain;
      in >> domain;
      pool.domains.push_back(std::move(domain));
    }
  }
  if (pool.bodies.empty() || pool.large.empty() || pool.domains.empty()) {
    throw std::runtime_error("incomplete request pool: " + path.string());
  }
  return pool;
}

void append_names(std::ostream& out,
                  const std::vector<hv::core::Violation>& violations) {
  out << "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << hv::core::info(violations[i]).name
        << "\"";
  }
  out << "]";
}

/// The POST /check response body, as hv serve documents it.
std::string check_json(const hv::engine::CheckReport& report) {
  std::ostringstream json;
  json << "{\n  \"utf8_valid\": " << (report.utf8_valid ? "true" : "false")
       << ",\n  \"parse_errors\": " << report.parse_errors
       << ",\n  \"distinct_violations\": " << report.distinct_violations()
       << ",\n  \"fully_auto_fixable\": "
       << (report.fully_auto_fixable ? "true" : "false")
       << ",\n  \"findings\": [";
  hv::engine::write_findings_json(json, report.findings, "    ");
  json << (report.findings.empty() ? "]" : "\n  ]");
  if (report.fix.has_value()) {
    const hv::engine::FixReport& fix = *report.fix;
    json << ",\n  \"fix\": {\n    \"fixed\": ";
    append_names(json, fix.fixed);
    json << ",\n    \"remaining\": ";
    append_names(json, fix.remaining);
    json << ",\n    \"semantics_preserving\": "
         << (fix.semantics_preserving ? "true" : "false")
         << ",\n    \"fully_fixed\": " << (fix.fully_fixed ? "true" : "false")
         << ",\n    \"fixed_html\": \"" << hv::engine::json_escape(fix.fixed_html)
         << "\"\n  }";
  }
  json << "\n}\n";
  return json.str();
}

/// The requests of one kind, one per pool item, each with its expected
/// response and the local time of the same work.  For kFix, `autofix_s`
/// gains the fix check's time minus the plain check's, body by body.
std::vector<Entry> build_entries(Kind kind, const Pool& pool,
                                 const hv::store::StudyView& view,
                                 const hv::engine::Engine& engine,
                                 double* autofix_s) {
  std::vector<Entry> entries;
  if (kind == Kind::kQuery) {
    for (const std::string& domain : pool.domains) {
      Entry entry;
      entry.wire = hv::net::build_http_request(
          "GET", "/query/domain/" + domain, {{"Host", "localhost"}}, "");
      const std::int64_t start = now_ns();
      const auto index = view.find_domain(domain);
      std::ostringstream out;
      if (index.has_value()) hv::report::render_domain_history(out, view, *index);
      entry.local_us = static_cast<double>(now_ns() - start) * 1e-3;
      entry.expected = out.str();
      entries.push_back(std::move(entry));
    }
    return entries;
  }
  for (const std::string& body : kind == Kind::kLarge ? pool.large : pool.bodies) {
    hv::engine::CheckRequest request;
    request.bytes = body;
    std::int64_t start = now_ns();
    hv::engine::CheckReport report = engine.check(request);
    double local_us = static_cast<double>(now_ns() - start) * 1e-3;
    if (kind == Kind::kFix) {
      request.autofix = true;
      start = now_ns();
      report = engine.check(request);
      const double fix_us = static_cast<double>(now_ns() - start) * 1e-3;
      *autofix_s += (fix_us - local_us) * 1e-6;
      local_us = fix_us;
    }
    Entry entry;
    entry.local_us = local_us;
    entry.expected = check_json(report);
    entry.wire = hv::net::build_http_request(
        "POST", kind == Kind::kFix ? "/check?fix=1" : "/check",
        {{"Host", "localhost"}, {"Content-Type", "text/html"}}, body);
    entries.push_back(std::move(entry));
  }
  return entries;
}

/// One keep-alive connection to the server.
class Client {
 public:
  explicit Client(int port) : port_(port) {}
  ~Client() { close_fd(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  struct Reply {
    bool ok = false;
    int status = 0;
    std::string body;
    std::int64_t first_byte_ns = 0;
  };

  /// Sends one request and reads its response; reconnects when the
  /// server closed the connection after its previous reply.
  Reply exchange(const std::string& wire) {
    Reply reply;
    if (fd_ < 0 && !connect_fd()) return reply;
    if (!send_all(wire)) {
      close_fd();
      return reply;
    }
    std::string buffer;
    std::size_t head_end = std::string::npos;
    char chunk[64 * 1024];
    while (head_end == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        close_fd();
        return reply;
      }
      if (reply.first_byte_ns == 0) reply.first_byte_ns = now_ns();
      buffer.append(chunk, static_cast<std::size_t>(n));
      head_end = buffer.find("\r\n\r\n");
    }
    const std::string_view head(buffer.data(), head_end);
    std::size_t length = 0;
    bool close_after = false;
    std::size_t line_start = head.find("\r\n");
    if (head.size() > 12) reply.status = std::atoi(buffer.c_str() + 9);
    while (line_start != std::string_view::npos && line_start < head.size()) {
      line_start += 2;
      const std::size_t line_end = std::min(head.find("\r\n", line_start), head.size());
      const std::string_view line = head.substr(line_start, line_end - line_start);
      const std::size_t colon = line.find(':');
      if (colon != std::string_view::npos) {
        const std::string_view name = line.substr(0, colon);
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        if (hv::net::iequals(name, "Content-Length")) {
          length = std::strtoull(std::string(value).c_str(), nullptr, 10);
        } else if (hv::net::iequals(name, "Connection")) {
          close_after = hv::net::iequals(value, "close");
        }
      }
      line_start = line_end;
    }
    const std::size_t body_start = head_end + 4;
    while (buffer.size() < body_start + length) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        close_fd();
        return reply;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    reply.body = buffer.substr(body_start, length);
    reply.ok = true;
    if (close_after) close_fd();
    return reply;
  }

  std::vector<double> connect_us;

 private:
  bool connect_fd() {
    const std::int64_t start = now_ns();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port_));
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      close_fd();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connect_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    return true;
  }

  bool send_all(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int port_;
  int fd_ = -1;
};

struct Sample {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t first_byte = 0;
  std::int64_t done = 0;
  std::uint32_t entry = 0;
  bool ok = false;
  bool waited = false;  ///< the connection was idle and slept until due
  std::size_t backlog = 0;
};

struct Phase {
  std::vector<Sample> samples;
  double p50_ms = 0;
  double p99_ms = 0;
  double late_p99_ms = 0;
  std::size_t backlog_max = 0;
  bool valid = true;
};

/// Runs one open-loop phase: Poisson arrivals at `rate` for `seconds`,
/// each a random entry, sent over the connections as each frees up and
/// timed from its due time.  Responses are checked against the entries'
/// expected bodies.
Phase run_phase(std::vector<std::unique_ptr<Client>>& clients,
                const std::vector<Entry>& entries, double rate, double seconds,
                std::mt19937_64& rng, Result& result) {
  Phase phase;
  std::exponential_distribution<double> gap(rate);
  std::vector<std::int64_t> due;
  double t = 0;
  while (true) {
    t += gap(rng);
    if (t >= seconds) break;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  phase.samples.resize(due.size());
  for (Sample& sample : phase.samples) {
    sample.entry = static_cast<std::uint32_t>(rng() % entries.size());
  }
  const std::int64_t base = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < due.size(); ++i) {
    phase.samples[i].due = base + due[i];
  }
  std::atomic<std::size_t> next{0};
  std::mutex errors_mutex;
  std::vector<std::string> errors;
  const auto worker = [&](Client& client) {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= phase.samples.size()) break;
      Sample& sample = phase.samples[i];
      std::int64_t now = now_ns();
      if (now < sample.due) {
        timespec until{};
        until.tv_sec = sample.due / 1'000'000'000;
        until.tv_nsec = sample.due % 1'000'000'000;
        clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr);
        sample.waited = true;
        now = now_ns();
      }
      sample.backlog = static_cast<std::size_t>(
          std::upper_bound(phase.samples.begin(), phase.samples.end(), now,
                           [](std::int64_t value, const Sample& s) {
                             return value < s.due;
                           }) -
          phase.samples.begin()) - std::min(i, phase.samples.size());
      sample.sent = now;
      const Entry& entry = entries[sample.entry];
      const Client::Reply reply = client.exchange(entry.wire);
      sample.done = now_ns();
      sample.first_byte = reply.first_byte_ns != 0 ? reply.first_byte_ns : sample.done;
      sample.ok = reply.ok && reply.status == 200 && reply.body == entry.expected;
      if (!sample.ok) {
        const std::lock_guard<std::mutex> lock(errors_mutex);
        errors.push_back(!reply.ok ? "request failed"
                                   : reply.status != 200
                                         ? "status " + std::to_string(reply.status)
                                         : "response differs from the local render");
      }
    }
  };
  std::vector<std::thread> threads;
  for (auto& client : clients) threads.emplace_back(worker, std::ref(*client));
  for (std::thread& thread : threads) thread.join();

  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  for (const Sample& sample : phase.samples) {
    // A failed request misses every latency limit.
    latency_ms.push_back(sample.ok ? static_cast<double>(sample.done - sample.due) * 1e-6
                                   : 1e9);
    if (sample.waited) late_ms.push_back(static_cast<double>(sample.sent - sample.due) * 1e-6);
    phase.backlog_max = std::max(phase.backlog_max, sample.backlog);
  }
  for (const std::string& error : errors) result.fail(error);
  result.attempted += phase.samples.size();
  phase.p50_ms = quantile(latency_ms, 0.5);
  phase.p99_ms = quantile(latency_ms, 0.99);
  phase.late_p99_ms = quantile(late_ms, 0.99);
  phase.valid = phase.late_p99_ms <= kMaxLateMs;
  return phase;
}

}  // namespace

Result serve_load(const ServeOptions& options) {
  Result result;
  const Pool pool = read_pool(options.workdir / "pool.bin");
  std::string error;
  const std::optional<hv::store::StudyView> view =
      hv::store::load_results(options.workdir / "results.hv", &error);
  if (!view.has_value()) throw std::runtime_error("results.hv: " + error);
  const hv::engine::Engine engine;

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < options.connections; ++c) {
    clients.push_back(std::make_unique<Client>(options.port));
  }
  std::mt19937_64 rng(options.seed ^ 0x10AD);
  std::map<std::string, double>& m = result.metrics;
  double autofix_s = 0;
  double late_ms = 0;
  std::size_t backlog_max = 0;
  std::uint64_t request_id = 0;
  Tracer requests(true);
  for (const Kind kind : kKinds) {
    const std::vector<Entry> entries =
        build_entries(kind, pool, *view, engine, &autofix_s);
    // A short untimed phase first: connections, server caches, this kind's
    // code paths.
    run_phase(clients, entries, kReferenceRps, 0.2, rng, result);
    Phase phase = run_phase(clients, entries, kReferenceRps, kPhaseSeconds, rng, result);
    // A generator that fell behind measured nothing: up to two retries.
    for (int retry = 0; retry < 2 && !phase.valid; ++retry) {
      phase = run_phase(clients, entries, kReferenceRps, kPhaseSeconds, rng, result);
    }
    const std::string name = kind_name(kind);
    if (!phase.valid) {
      result.fail("generator fell behind on " + name + " (p99 late " +
                  std::to_string(phase.late_p99_ms) + " ms)");
    }
    std::vector<double> overhead_us;
    for (const Sample& sample : phase.samples) {
      if (!sample.ok) continue;
      overhead_us.push_back(static_cast<double>(sample.done - sample.sent) * 1e-3 -
                            entries[sample.entry].local_us);
    }
    m["serve." + name + ".p50_ms"] = phase.p50_ms;
    m["serve." + name + ".p99_ms"] = phase.p99_ms;
    m["serve." + name + ".overhead_us"] = quantile(overhead_us, 0.5);
    late_ms = std::max(late_ms, phase.late_p99_ms);
    backlog_max = std::max(backlog_max, phase.backlog_max);
    // Per request: due -> sent -> first byte -> done.
    for (const Sample& s : phase.samples) {
      const int root = requests.add(span_name(kind), s.due, s.done, -1, request_id);
      requests.add("serve.queue", s.due, s.sent, root, request_id);
      requests.add("serve.server", s.sent, s.first_byte, root, request_id);
      requests.add("serve.receive", s.first_byte, s.done, root, request_id);
      ++request_id;
    }
  }
  requests.write_jsonl(options.workdir / "spans_requests.jsonl");
  const auto median_bytes = [](const std::vector<std::string>& bodies) {
    std::vector<double> sizes;
    for (const std::string& body : bodies) sizes.push_back(static_cast<double>(body.size()));
    return median(sizes);
  };
  m["serve.check.body_bytes"] = median_bytes(pool.bodies);
  m["serve.large.body_bytes"] = median_bytes(pool.large);
  m["serve.overhead_us"] = m["serve.check.overhead_us"];
  m["serve.backlog_max"] = static_cast<double>(backlog_max);
  m["serve.gen_late_ms"] = late_ms;
  m["fix.autofix_s"] = autofix_s;

  std::vector<double> connect_us;
  double reconnects = 0;
  for (const auto& client : clients) {
    connect_us.insert(connect_us.end(), client->connect_us.begin(),
                      client->connect_us.end());
    reconnects += static_cast<double>(client->connect_us.size()) - 1;
  }
  m["serve.connect_us"] = quantile(connect_us, 0.5);
  m["serve.reconnects"] = reconnects;
  return result;
}

}  // namespace perfbench
