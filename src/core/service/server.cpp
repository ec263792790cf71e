#include "core/service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/fingerprint.hpp"
#include "core/spec.hpp"
#include "core/tune/perf_db.hpp"

namespace nk::service {

namespace {

int open_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("nkrylovd: socket path empty or too long: '" + path + "'");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("nkrylovd: socket(): " + std::string(strerror(errno)));
  ::unlink(path.c_str());  // stale socket from a crashed daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw std::runtime_error("nkrylovd: bind('" + path + "'): " + why);
  }
  if (::listen(fd, 128) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    throw std::runtime_error("nkrylovd: listen(): " + why);
  }
  return fd;
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), executor_(cfg_.executor) {}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = open_unix_listener(cfg_.socket_path);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wait(const std::atomic<bool>* external_stop) {
  std::unique_lock<std::mutex> lk(wait_mu_);
  // Polling wait so a signal handler only needs to flip a flag.
  wait_cv_.wait_for(lk, std::chrono::milliseconds(50), [&] {
    return shutdown_requested_ || stopping_.load() ||
           (external_stop != nullptr && external_stop->load());
  });
  while (!(shutdown_requested_ || stopping_.load() ||
           (external_stop != nullptr && external_stop->load()))) {
    wait_cv_.wait_for(lk, std::chrono::milliseconds(50));
  }
}

void Server::stop() {
  if (stopping_.exchange(true)) return;  // first caller does the teardown
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Kick every connection out of its blocking read; the fd set and the
    // erase in serve_connection share conn_mu_, so no recycled-fd races.
    const std::lock_guard<std::mutex> lk(conn_mu_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> conns;
  {
    const std::lock_guard<std::mutex> lk(conn_mu_);
    conns.swap(connections_);
  }
  for (std::thread& t : conns) t.join();
  ::unlink(cfg_.socket_path.c_str());
  wait_cv_.notify_all();
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop) or fatal
    }
    const std::lock_guard<std::mutex> lk(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    active_fds_.insert(fd);
    connections_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void Server::serve_connection(int fd) {
  BufferedReader in(fd);
  while (serve_request(fd, in)) {
  }
  {
    const std::lock_guard<std::mutex> lk(conn_mu_);
    active_fds_.erase(fd);
  }
  ::close(fd);
}

bool Server::send_err(int fd, const std::string& code, const std::string& msg) {
  return write_line(fd, "ERR " + code + " " + msg);
}

bool Server::serve_request(int fd, BufferedReader& in) {
  std::string line;
  if (!in.read_line(line)) return false;  // EOF / error / overlong line
  Request r;
  try {
    r = parse_request_line(line);
  } catch (const ProtocolError& e) {
    // A malformed header leaves any payload length unknowable — reply,
    // then close so the stream cannot desynchronize.
    send_err(fd, e.code(), e.what());
    return false;
  }
  switch (r.verb) {
    case Request::Verb::kHello:
      return write_line(fd, "OK nkrylovd " + std::to_string(kProtocolVersion));
    case Request::Verb::kPut:
      return handle_put(fd, in, r);
    case Request::Verb::kPutGen:
      return handle_putgen(fd, r);
    case Request::Verb::kSolve:
      return handle_solve(fd, in, r);
    case Request::Verb::kStats:
      return write_line(fd, stats_line());
    case Request::Verb::kFree:
      if (problems_.erase(r.handle)) return write_line(fd, "OK");
      return send_err(fd, "unknown-handle", fingerprint_hex(r.handle));
    case Request::Verb::kShutdown: {
      write_line(fd, "OK");
      {
        const std::lock_guard<std::mutex> lk(wait_mu_);
        shutdown_requested_ = true;
      }
      wait_cv_.notify_all();
      return false;
    }
  }
  return false;  // unreachable
}

bool Server::handle_put(int fd, BufferedReader& in, const Request& r) {
  const auto n = static_cast<std::size_t>(r.n);
  const auto nnz = static_cast<std::size_t>(r.nnz);
  std::vector<index_t> row_ptr(n + 1);
  std::vector<index_t> col_idx(nnz);
  std::vector<double> vals(nnz);
  if (!in.read_exact(row_ptr.data(), row_ptr.size() * sizeof(index_t)) ||
      !in.read_exact(col_idx.data(), col_idx.size() * sizeof(index_t)) ||
      !in.read_exact(vals.data(), vals.size() * sizeof(double)))
    return false;

  // Structural validation BEFORE preparation: a hostile row_ptr must not
  // reach the kernels.
  std::string bad;
  if (row_ptr[0] != 0) bad = "row_ptr[0] != 0";
  for (std::size_t i = 0; bad.empty() && i < n; ++i)
    if (row_ptr[i + 1] < row_ptr[i]) bad = "row_ptr not nondecreasing";
  if (bad.empty() && static_cast<std::size_t>(row_ptr[n]) != nnz) bad = "row_ptr[n] != nnz";
  for (std::size_t i = 0; bad.empty() && i < nnz; ++i)
    if (col_idx[i] < 0 || static_cast<std::size_t>(col_idx[i]) >= n)
      bad = "col_idx out of range";
  if (!bad.empty()) return send_err(fd, "bad-matrix", bad);

  CsrMatrix<double> a(static_cast<index_t>(n), static_cast<index_t>(n));
  a.row_ptr = std::move(row_ptr);
  a.col_idx = std::move(col_idx);
  a.vals = std::move(vals);
  ProblemTable::PutOutcome out;
  try {
    out = problems_.put_matrix(std::move(a), r.symmetric);
  } catch (const std::exception& e) {
    return send_err(fd, "bad-matrix", e.what());
  }
  return write_line(fd, "HANDLE " + fingerprint_hex(out.handle) + " " + std::to_string(n) +
                            " " + std::to_string(nnz) + (out.cached ? " CACHED" : " NEW"));
}

bool Server::handle_putgen(int fd, const Request& r) {
  ProblemTable::PutOutcome out;
  try {
    out = problems_.put_standin(r.standin, r.scale);
  } catch (const std::exception& e) {
    return send_err(fd, "bad-matrix", e.what());
  }
  const CsrMatrix<double>& a = out.problem->a->csr_fp64();
  return write_line(fd, "HANDLE " + fingerprint_hex(out.handle) + " " +
                            std::to_string(a.nrows) + " " + std::to_string(a.nnz()) +
                            (out.cached ? " CACHED" : " NEW"));
}

bool Server::handle_solve(int fd, BufferedReader& in, const Request& r) {
  const auto n = static_cast<std::size_t>(r.n);
  const auto k = static_cast<std::size_t>(r.k);

  // Decide acceptance BEFORE touching the payload; a rejected request has
  // a known payload size, so we drain it and keep the connection.
  std::shared_ptr<const PreparedProblem> p = problems_.find(r.handle);
  std::string err_code;
  std::string err_msg;
  SolverSpec spec;
  if (!p) {
    err_code = "unknown-handle";
    err_msg = fingerprint_hex(r.handle);
  } else if (p->b.size() != n) {
    err_code = "bad-request";
    err_msg = "n=" + std::to_string(n) + " but handle has n=" + std::to_string(p->b.size());
  } else {
    try {
      spec = SolverSpec::parse(r.spec);
    } catch (const SpecError& e) {
      err_code = "bad-spec";
      err_msg = e.what();
    }
  }
  if (!err_code.empty()) {
    std::vector<double> sink(4096);
    std::size_t remaining = k * n * sizeof(double);
    while (remaining > 0) {
      const std::size_t take = std::min(remaining, sink.size() * sizeof(double));
      if (!in.read_exact(sink.data(), take)) return false;
      remaining -= take;
    }
    return send_err(fd, err_code, err_msg);
  }

  // No value screening here: a NaN-poisoned column is the ENGINE's job to
  // retire (kNonFinite / kInvalidInput per column), and the other columns
  // of its shared batch must complete normally.
  std::vector<std::vector<double>> columns(k);
  for (std::size_t c = 0; c < k; ++c) {
    columns[c].resize(n);
    if (!in.read_exact(columns[c].data(), n * sizeof(double))) return false;
  }

  const std::uint64_t request_id = next_request_id_.fetch_add(1);
  std::vector<std::future<ColumnOutcome>> futures =
      executor_.submit(r.handle, std::move(p), spec, std::move(columns), request_id);

  std::vector<ColumnOutcome> outcomes;
  outcomes.reserve(k);
  for (auto& f : futures) outcomes.push_back(f.get());

  if (!write_line(fd, "RESULT " + std::to_string(k) + " " + std::to_string(n))) return false;
  for (std::size_t c = 0; c < k; ++c)
    if (!write_line(fd, format_col_line(static_cast<int>(c), outcomes[c].result)))
      return false;
  for (std::size_t c = 0; c < k; ++c)
    if (!write_all(fd, outcomes[c].x.data(), n * sizeof(double))) return false;
  return true;
}

std::string Server::stats_line() const {
  const ProblemTable::Stats ps = problems_.stats();
  const SessionCache::Stats ss = executor_.sessions().stats();
  const SolveExecutor::Stats xs = executor_.stats();
  std::ostringstream os;
  os << "STATS problem_hits=" << ps.hits << " problem_misses=" << ps.misses
     << " problem_resident=" << ps.resident << " session_hits=" << ss.hits
     << " session_misses=" << ss.misses << " session_evictions=" << ss.evictions
     << " session_resident=" << ss.resident << " columns=" << xs.columns
     << " batches=" << xs.batches << " merged_batches=" << xs.merged_batches
     << " widest_batch=" << xs.widest_batch;
  // Autotuner counters (process-wide; nonzero only once a client has sent
  // a "auto" spec): DB answers vs cold tuning runs vs probe solves burned.
  const tune::TuneDbStats ts = tune::tune_db().stats();
  os << " tuner_hits=" << ts.hits << " tuner_misses=" << ts.misses
     << " tuner_probes=" << ts.probes;
  return os.str();
}

}  // namespace nk::service
