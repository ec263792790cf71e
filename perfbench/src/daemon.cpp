// daemon_closed_loop: an in-process nkrylovd (service::Server, 2 executor
// threads) on a Unix socket inside the output directory, driven through
// service::Client connections.
//
//   closed loop   4 connections, each sending a fixed seeded list of SOLVE
//                 requests (k = 1-4 columns, krylov/bj@fp64 and f3r@fp16 at
//                 3:1 on both matrices) and waiting for each reply: the req_*
//                 metrics and the executor's batching figures.
//   per spec      then, on one connection with the daemon otherwise idle,
//                 single-column requests for every (matrix, spec) key: the
//                 tts_* metrics, i.e. time to solution through the daemon.
//
// Every returned column is checked in fp64 against a local copy of the
// prepared matrix.  The same routine, with short lists, is the service pass
// of the solve workloads' traced runs.
#include <unistd.h>

#include <memory>
#include <sstream>
#include <thread>

#include "base/rng.hpp"
#include "bench.hpp"
#include "core/service/client.hpp"
#include "core/service/server.hpp"
#include "core/session.hpp"
#include "core/tune/perf_db.hpp"

namespace nkb {
namespace {

constexpr int kConnections = 4;
constexpr int kExecutorThreads = 2;
/// The closed loop's spec mix (indices into kSpecs): three krylov/bj@fp64
/// requests to one f3r@fp16 request.
constexpr std::array<int, 4> kLoopSpecs{4, 4, 4, 0};

struct Request {
  int m = 0, s = 0, k = 1;
  std::vector<double> B;  ///< k columns, column-contiguous
  double latency_s = 0.0;
  nk::service::Client::SolveReply reply;
};

struct DaemonPlan {
  int requests_per_conn = 0;  ///< closed-loop list length per connection
  int setup_reps = 1;
  int per_key = 1;            ///< sequential single-column requests per key
};

std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok)
    if (const auto eq = tok.find('='); eq != std::string::npos)
      out[tok.substr(0, eq)] = std::stod(tok.substr(eq + 1));
  return out;
}

/// A started server with its connected clients and matrix handles.
struct Daemon {
  std::unique_ptr<nk::service::Server> server;
  std::vector<std::unique_ptr<nk::service::Client>> clients;
  std::vector<std::uint64_t> handles;

  /// Disconnect the clients, then stop the server.
  void reset() {
    clients.clear();
    handles.clear();
    server.reset();
  }
};

struct DaemonRun {
  WorkloadResult r;
  Metrics service;
};

DaemonRun daemon_run(const RunConfig& cfg, const DaemonPlan& plan, bool traced,
                     InputDigest& digest) {
  const std::vector<std::string> names{"hpcg_4_4_4", "hpgmp_4_4_4"};
  const int scale = 1;
  DaemonRun run;
  WorkloadResult& r = run.r;
  r.matrices = names;
  r.pairs.resize(names.size());

  // Local copies of what the daemon solves: for the RHS sizes, the fp64
  // checks, and the solo solves of the traced run.
  std::vector<std::shared_ptr<const nk::PreparedProblem>> local;
  std::vector<std::vector<double>> key_rhs;  ///< per matrix: the per-spec phase's RHS
  for (std::size_t m = 0; m < names.size(); ++m) {
    const double t0 = now_s();
    local.push_back(
        std::make_shared<const nk::PreparedProblem>(nk::prepare_standin(names[m], scale)));
    r.prepare_s += now_s() - t0;
    r.rows.push_back(local.back()->a->size());
    key_rhs.push_back(nk::batch_rhs(*local.back(), 1, mix_seed(cfg.seed, 5, m)));
    digest.add(key_rhs.back());
  }
  r.largest = working_set(*local[0]);

  // The closed-loop request lists, one per connection: the same mix of
  // (spec, matrix, k) on every connection and for every seed, cycling
  // through all combinations, in a seeded order with seeded RHS.
  std::vector<std::vector<Request>> lists(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    auto& list = lists[c];
    for (int i = 0; i < plan.requests_per_conn; ++i) {
      Request q;
      q.s = kLoopSpecs[i % kLoopSpecs.size()];
      q.m = static_cast<int>((i / kLoopSpecs.size()) % names.size());
      q.k = 1 + static_cast<int>((i / (kLoopSpecs.size() * names.size())) % 4);
      list.push_back(std::move(q));
    }
    nk::Xoshiro256 rng(mix_seed(cfg.seed, 3, static_cast<std::uint64_t>(c)));
    for (std::size_t i = list.size(); i > 1; --i) std::swap(list[i - 1], list[rng.uniform_index(i)]);
    for (std::size_t i = 0; i < list.size(); ++i) {
      Request& q = list[i];
      q.B = nk::batch_rhs(*local[q.m], q.k, mix_seed(cfg.seed, 4, c * 1000003ULL + i));
      for (int v : {q.m, q.s, q.k}) digest.add_u64(static_cast<std::uint64_t>(v));
      digest.add(q.B);
    }
  }

  const auto check = [&](int m, std::span<const double> b, std::span<const double> x,
                         const nk::service::WireColumn& col, const std::string& what) {
    r.outcome.check(local[m]->a->csr_fp64(), b, x, col.status, col.relres,
                    names[m] + " " + what);
  };

  // Set-up: server start, PUTGENs, and one warm-up SOLVE per key, which
  // mints the cached Sessions ("auto" tunes here, from an empty perf-DB).
  const std::string socket = cfg.out_dir + "/d" + std::to_string(::getpid()) + ".sock";
  Daemon d;
  std::vector<double> putgen_ms;
  nk::tune::TuneDbStats tune_setup;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    d.reset();
    nk::tune::tune_db().clear();
    const SpanScope span("daemon_setup");
    const double t0 = now_s();
    nk::service::ServerConfig sc;
    sc.socket_path = socket;
    sc.executor.threads = kExecutorThreads;
    d.server = std::make_unique<nk::service::Server>(sc);
    d.server->start();
    for (int c = 0; c < kConnections; ++c)
      d.clients.push_back(std::make_unique<nk::service::Client>(socket));
    for (const auto& name : names) {
      const double tp = now_s();
      d.handles.push_back(d.clients[0]->put_standin(name, scale).handle);
      putgen_ms.push_back((now_s() - tp) * 1e3);
    }
    for (std::size_t m = 0; m < names.size(); ++m)
      for (int s = 0; s < kNumSpecs; ++s) {
        const auto& b = key_rhs[m];
        const auto rep_x =
            d.clients[0]->solve(d.handles[m], kSpecs[s].text, b, 1, local[m]->a->size());
        check(static_cast<int>(m), b, rep_x.x, rep_x.columns[0],
              std::string("warm-up ") + kSpecs[s].text);
      }
    r.setup_samples.push_back(now_s() - t0);
    tune_setup = nk::tune::tune_db().stats();
  }

  // The closed loop.
  const auto before = parse_stats(d.server->stats_line());
  std::vector<std::string> errors(kConnections);
  const double loop_t0 = now_s();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
      threads.emplace_back([&, c] {
        try {
          for (std::size_t i = 0; i < lists[c].size(); ++i) {
            Request& q = lists[c][i];
            const std::uint64_t id = static_cast<std::uint64_t>(c) * 1000000 + i + 1;
            const SpanScope span(std::string("request:") + kSpecs[q.s].text, -1, id);
            const SpanScope inner("client_solve", span.id(), id);
            const double t0 = now_s();
            q.reply = d.clients[c]->solve(d.handles[q.m], kSpecs[q.s].text, q.B, q.k,
                                          local[q.m]->a->size());
            q.latency_s = now_s() - t0;
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    for (auto& t : threads) t.join();
  }
  r.measured_s = now_s() - loop_t0;
  const auto after = parse_stats(d.server->stats_line());
  for (const auto& e : errors)
    if (!e.empty()) throw std::runtime_error("daemon client: " + e);
  for (const auto& list : lists)
    for (const Request& q : list) {
      r.request_ms.push_back(q.latency_s * 1e3);
      const auto n = static_cast<std::size_t>(local[q.m]->a->size());
      for (int c = 0; c < q.k; ++c)
        check(q.m, std::span<const double>(q.B).subspan(c * n, n),
              std::span<const double>(q.reply.x).subspan(c * n, n), q.reply.columns[c],
              std::string(kSpecs[q.s].text) + " col " + std::to_string(c));
    }

  // Per-spec phase: single-column requests per key on the idle daemon,
  // one per key in turn, so a slow spell of the host touches few samples
  // of each key.
  std::uint64_t req = static_cast<std::uint64_t>(kConnections) * 1000000;  // after the loop's ids
  for (int i = 0; i < plan.per_key; ++i)
    for (std::size_t m = 0; m < names.size(); ++m)
      for (int s = 0; s < kNumSpecs; ++s) {
        const auto& b = key_rhs[m];
        const SpanScope span(std::string("request:") + kSpecs[s].text, -1, ++req);
        const SpanScope inner("client_solve", span.id(), req);
        const double t0 = now_s();
        const auto rep_x =
            d.clients[0]->solve(d.handles[m], kSpecs[s].text, b, 1, local[m]->a->size());
        r.pairs[m][s].times.push_back(now_s() - t0);
        check(static_cast<int>(m), b, rep_x.x, rep_x.columns[0], kSpecs[s].text);
      }
  d.reset();

  Metrics& sv = run.service;
  const auto delta = [&](const char* key) { return after.at(key) - before.at(key); };
  sv["service.putgen_ms"] = {median(putgen_ms), "ms"};
  sv["service.cols_per_batch"] = {delta("columns") / delta("batches"), "count"};
  sv["service.merged_frac"] = {delta("merged_batches") / delta("batches"), "ratio"};
  sv["service.widest_batch"] = {after.at("widest_batch"), "count"};
  sv["service.session_hit_ratio"] = {
      delta("session_hits") / (delta("session_hits") + delta("session_misses")), "ratio"};
  r.notes.push_back("daemon: " + std::to_string(r.request_ms.size()) +
                    " closed-loop requests on " + std::to_string(kConnections) +
                    " connections, executor threads " + std::to_string(kExecutorThreads) +
                    ", loop " + std::to_string(r.measured_s) + " s; then " +
                    std::to_string(plan.per_key) + " single-column requests per key");
  if (!traced) return run;

  // Solo solves: the per-spec phase's column through a local Session, for
  // the service overhead and the krylov/core/tune figures.
  double tune_cold = 0.0;
  std::uint64_t tune_hits = 0;
  for (std::size_t m = 0; m < names.size(); ++m) {
    const auto& p = local[m];
    for (int s = 0; s < kNumSpecs; ++s) {
      PairRecord& pr = r.pairs[m][s];
      if (s == kAutoSpec) nk::tune::tune_db().clear();
      const double t0 = now_s();
      nk::Session sess(p, std::string(kSpecs[s].text));
      pr.ctor_s = now_s() - t0;
      if (s == kAutoSpec) {
        tune_cold += pr.ctor_s;
        const auto h = nk::tune::tune_db().stats().hits;
        { const nk::Session warm_auto(p, std::string("auto")); }
        tune_hits += nk::tune::tune_db().stats().hits - h;
      }
      for (int i = 0; i <= plan.per_key; ++i) {  // the first solve warms the Session
        std::vector<double> x(p->b.size(), 0.0);
        const double ts = now_s();
        pr.last = sess.solve(key_rhs[m], x);
        if (i > 0) pr.solo_times.push_back(now_s() - ts);
        r.outcome.check(p->a->csr_fp64(), key_rhs[m], x, nk::status_name(pr.last.status),
                        pr.last.final_relres, names[m] + " solo " + kSpecs[s].text);
      }
      pr.unit_cost =
          modeled_unit_cost(*p, s == kAutoSpec ? tuned_spec(*p) : std::string(kSpecs[s].text));
      // Summed over matrices, like the tts_* metrics.
      const std::string k = kSpecs[s].key;
      sv["service.solve_ms." + k].unit = "ms";
      sv["service.solo_ms." + k].unit = "ms";
      sv["service.solve_ms." + k].value += median(pr.times) * 1e3;
      sv["service.solo_ms." + k].value += median(pr.solo_times) * 1e3;
    }
  }
  for (const auto& sp : kSpecs) {
    const std::string k = sp.key;
    sv["service.overhead_ms." + k] = {
        sv["service.solve_ms." + k].value - sv["service.solo_ms." + k].value, "ms"};
  }
  r.layer["tune.ctor_s"] = {tune_cold, "s"};
  r.layer["tune.probes"] = {static_cast<double>(tune_setup.probes), "count"};
  r.layer["tune.db_misses"] = {static_cast<double>(tune_setup.misses), "count"};
  r.layer["tune.db_hits"] = {static_cast<double>(tune_hits), "count"};
  return run;
}

}  // namespace

WorkloadResult run_daemon_workload(const RunConfig& cfg, InputDigest& digest) {
  // Closed-loop list length: 12 requests per connection per second of
  // --seconds, about --seconds of loop on an idle 4-core host, while the
  // list stays a pure function of (seed, seconds).
  DaemonPlan plan{static_cast<int>(cfg.seconds * 12.0 + 0.5), 3, 15};
  if (cfg.tiny) plan = {4, 1, 1};
  DaemonRun run = daemon_run(cfg, plan, cfg.trace, digest);
  if (cfg.trace) {
    run.r.layer.insert(run.service.begin(), run.service.end());
    KernelPasses kernels(cfg.threads);
    for (const auto& name : run.r.matrices) kernels.add(nk::prepare_standin(name, 1));
    kernels.write(run.r.layer);
  }
  return std::move(run.r);
}

void service_pass(const RunConfig& cfg, Metrics& layer, Outcome& outcome) {
  InputDigest unused;
  const DaemonPlan plan = cfg.tiny ? DaemonPlan{2, 1, 1} : DaemonPlan{6, 1, 3};
  DaemonRun run = daemon_run(cfg, plan, true, unused);
  layer.insert(run.service.begin(), run.service.end());
  outcome.attempted += run.r.outcome.attempted;
  outcome.failed += run.r.outcome.failed;
  outcome.violated += run.r.outcome.violated;
  outcome.worst_relres = std::max(outcome.worst_relres, run.r.outcome.worst_relres);
}

}  // namespace nkb
