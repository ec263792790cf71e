#include "core/service/executor.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "core/fingerprint.hpp"

namespace nk::service {

SolveExecutor::SolveExecutor(ExecutorConfig cfg)
    : cache_(cfg.cache_capacity), cfg_(cfg), paused_(cfg.start_paused) {
  cfg_.threads = std::max(1, cfg_.threads);
  cfg_.max_batch = std::max(1, cfg_.max_batch);
  workers_.reserve(static_cast<std::size_t>(cfg_.threads));
  for (int t = 0; t < cfg_.threads; ++t) workers_.emplace_back([this] { worker_loop(); });
}

SolveExecutor::~SolveExecutor() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;  // drain-then-stop: queued columns still complete
    paused_ = false;   // a paused executor must still drain on teardown
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::vector<std::future<ColumnOutcome>> SolveExecutor::submit(
    std::uint64_t handle, std::shared_ptr<const PreparedProblem> p, const SolverSpec& spec,
    std::vector<std::vector<double>> columns, std::uint64_t request_id) {
  const std::string key = fingerprint_hex(handle) + "|" + spec.to_string();
  std::vector<std::future<ColumnOutcome>> futures;
  futures.reserve(columns.size());
  {
    const std::lock_guard<std::mutex> lk(mu_);
    KeyQueue& q = queues_[key];
    if (!q.problem) {
      q.handle = handle;
      q.problem = std::move(p);
      q.spec = spec;
    }
    for (std::vector<double>& b : columns) {
      Column c;
      c.b = std::move(b);
      c.request_id = request_id;
      futures.push_back(c.promise.get_future());
      q.pending.push_back(std::move(c));
    }
  }
  cv_.notify_all();
  return futures;
}

void SolveExecutor::resume() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void SolveExecutor::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (paused_) {
      cv_.wait(lk);
      continue;
    }
    // Claim the first key with pending work that no other worker owns.
    auto claimed = queues_.end();
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
      if (!it->second.in_flight && !it->second.pending.empty()) {
        claimed = it;
        break;
      }
    }
    if (claimed == queues_.end()) {
      if (stopping_) return;
      cv_.wait(lk);
      continue;
    }

    KeyQueue& q = claimed->second;
    q.in_flight = true;
    // Merge up to max_batch pending columns — whatever requests they came
    // from — into one batched solve.
    const std::size_t take =
        std::min(q.pending.size(), static_cast<std::size_t>(cfg_.max_batch));
    std::vector<Column> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(q.pending.front()));
      q.pending.pop_front();
    }
    const std::string key = claimed->first;

    lk.unlock();
    run_batch(q, std::move(batch));
    lk.lock();

    q.in_flight = false;
    if (q.pending.empty()) {
      queues_.erase(key);
    } else {
      // More columns arrived while we solved; let any idle worker
      // (including us, next loop) claim the key again.
      cv_.notify_all();
    }
  }
}

void SolveExecutor::run_batch(KeyQueue& q, std::vector<Column> batch) {
  const int k = static_cast<int>(batch.size());
  const std::size_t n = q.problem->b.size();
  std::vector<SolveResult> results;
  std::vector<double> X;
  try {
    SessionCache::Lease lease = cache_.lease(q.handle, q.problem, q.spec);
    std::vector<double> B(static_cast<std::size_t>(k) * n);
    for (int c = 0; c < k; ++c)
      std::copy(batch[static_cast<std::size_t>(c)].b.begin(),
                batch[static_cast<std::size_t>(c)].b.end(),
                B.begin() + static_cast<std::size_t>(c) * n);
    X.assign(static_cast<std::size_t>(k) * n, 0.0);
    results = lease.session().solve_many(B, X, k);
  } catch (const std::exception& e) {
    // Session construction failed (unknown kind slipping past the server's
    // spec validation): fail every column structurally, poison nothing.
    SolveResult r;
    r.fail(SolveStatus::kInvalidInput, std::string("session: ") + e.what());
    for (Column& c : batch) {
      ColumnOutcome out;
      out.result = r;
      out.x.assign(n, 0.0);
      c.promise.set_value(std::move(out));
    }
    return;
  }

  // Record stats BEFORE fulfilling any promise: a caller that observes a
  // completed future must also observe its batch in the counters.
  {
    std::set<std::uint64_t> requests;
    for (const Column& c : batch) requests.insert(c.request_id);
    const std::lock_guard<std::mutex> slk(mu_);
    stats_.columns += static_cast<std::uint64_t>(k);
    stats_.batches += 1;
    if (requests.size() > 1) stats_.merged_batches += 1;
    stats_.widest_batch = std::max(stats_.widest_batch, k);
  }

  for (int c = 0; c < k; ++c) {
    ColumnOutcome out;
    out.result = std::move(results[static_cast<std::size_t>(c)]);
    out.x.assign(X.begin() + static_cast<std::size_t>(c) * n,
                 X.begin() + static_cast<std::size_t>(c + 1) * n);
    batch[static_cast<std::size_t>(c)].promise.set_value(std::move(out));
  }
}

SolveExecutor::Stats SolveExecutor::stats() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace nk::service
