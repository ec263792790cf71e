// Full daemon round trips over a real Unix-domain socket: handle
// lifecycle, cache-hit accounting on the wire, per-column structured
// failures for poisoned requests, and the two ERR disciplines (header
// desync closes, semantic errors keep the stream).
#include "core/service/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "core/service/client.hpp"
#include "core/session.hpp"
#include "support/problems.hpp"

namespace nk::service {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.socket_path = "/tmp/nkrylovd-test-" + std::to_string(::getpid()) + "-" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".sock";
    cfg.executor.threads = 2;
    cfg.executor.max_batch = 8;
    server_ = std::make_unique<Server>(cfg);
    server_->start();
    path_ = cfg.socket_path;
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<Server> server_;
  std::string path_;
};

TEST_F(ServerTest, HelloBanner) {
  Client c(path_);
  EXPECT_EQ(c.hello(), "nkrylovd 1");
}

TEST_F(ServerTest, PutSolveRoundTripMatchesLocalSession) {
  const CsrMatrix<double> a = test::scaled_laplace2d(16, 16);
  const std::size_t n = static_cast<std::size_t>(a.nrows);

  Client c(path_);
  const Client::Handle h = c.put_matrix(a, true);
  EXPECT_FALSE(h.cached);
  EXPECT_EQ(h.n, a.nrows);
  EXPECT_EQ(h.nnz, a.nnz());

  const std::string spec = "cg/jacobi";
  std::vector<double> B(2 * n);
  for (std::size_t i = 0; i < B.size(); ++i)
    B[i] = 0.5 + 0.25 * std::sin(static_cast<double>(i));
  const Client::SolveReply reply = c.solve(h.handle, spec, B, 2, h.n);
  ASSERT_EQ(reply.columns.size(), 2u);
  for (const WireColumn& col : reply.columns) EXPECT_TRUE(col.converged());

  // The daemon prepared the SAME system a local Session would (the PUT
  // path runs prepare_problem on the uploaded matrix), so the returned
  // bits must match a local solve of the prepared problem.
  const PreparedProblem p =
      prepare_problem("local", a, true, 1.0, 1.0, /*rhs_seed=*/7);
  Session s(borrow_problem(p), SolverSpec::parse(spec));
  std::vector<double> x(n, 0.0);
  const SolveResult local = s.solve(std::span<const double>(B.data(), n), x);
  ASSERT_TRUE(local.converged);
  for (std::size_t j = 0; j < n; ++j)
    ASSERT_EQ(reply.x[j], x[j]) << "daemon and local solve diverged at " << j;
}

TEST_F(ServerTest, SerialBackendSpecRoundTripsThroughTheDaemon) {
  // The backend seam reaches the service layer through the spec string
  // alone: a ";backend=serial" request runs on the reference backend
  // daemon-side and must match a LOCAL serial Session bit for bit (the
  // daemon adds no kernels of its own).  Unknown backends come back as a
  // structured per-column failure, not a dead connection.
  const CsrMatrix<double> a = test::scaled_laplace2d(16, 16);
  const std::size_t n = static_cast<std::size_t>(a.nrows);

  Client c(path_);
  const Client::Handle h = c.put_matrix(a, true);
  const std::string spec = "cg/jacobi@fp64;backend=serial";
  std::vector<double> B(n);
  for (std::size_t i = 0; i < n; ++i)
    B[i] = 0.5 + 0.25 * std::sin(static_cast<double>(i));
  const Client::SolveReply reply = c.solve(h.handle, spec, B, 1, h.n);
  ASSERT_EQ(reply.columns.size(), 1u);
  EXPECT_TRUE(reply.columns[0].converged());

  // The executor solves every request through the batched path, so the
  // local reference is solve_many(k=1) on a serial Session — same code
  // path, same bits.
  const PreparedProblem p = prepare_problem("local", a, true, 1.0, 1.0, 7);
  Session s(borrow_problem(p), SolverSpec::parse(spec));
  EXPECT_EQ(s.backend(), Backend::kSerial);
  std::vector<double> x(n, 0.0);
  const std::vector<SolveResult> local =
      s.solve_many(std::span<const double>(B.data(), n), x, 1);
  ASSERT_EQ(local.size(), 1u);
  ASSERT_TRUE(local[0].converged);
  for (std::size_t j = 0; j < n; ++j)
    ASSERT_EQ(reply.x[j], x[j]) << "daemon and local serial solve diverged at " << j;

  // Unknown backend in the spec: the bad-spec semantic-error discipline —
  // ERR returned, connection stays usable.
  try {
    c.solve(h.handle, "cg/jacobi;backend=cuda", B, 1, h.n);
    FAIL() << "expected bad-spec";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), "bad-spec");
  }
  EXPECT_TRUE(c.solve(h.handle, spec, B, 1, h.n).columns[0].converged());
}

TEST_F(ServerTest, RepeatPutIsCachedAcrossConnections) {
  const CsrMatrix<double> a = test::scaled_laplace2d(12, 12);
  {
    Client c1(path_);
    EXPECT_FALSE(c1.put_matrix(a, true).cached);
  }
  Client c2(path_);  // a different client, later: still a hit
  EXPECT_TRUE(c2.put_matrix(a, true).cached);
  const auto stats = c2.stats();
  EXPECT_EQ(stats.at("problem_hits"), 1u);
  EXPECT_EQ(stats.at("problem_misses"), 1u);
}

TEST_F(ServerTest, SemanticErrorsKeepTheConnectionUsable) {
  Client c(path_);
  const Client::Handle h = c.put_standin("hpcg_4_4_4", 1);
  std::vector<double> B(static_cast<std::size_t>(h.n), 1.0);

  // Unknown handle: payload drained, ERR returned, stream intact.
  try {
    c.solve(0xdeadbeefu, "cg/jacobi", B, 1, h.n);
    FAIL() << "expected unknown-handle";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), "unknown-handle");
  }
  // Bad spec on a good handle (a malformed value, then the retired
  // ";masked" and ";layout=" options): same discipline.
  for (const char* spec : {"cg;wave=4x", "cg;masked", "cg;layout=colmajor"}) {
    try {
      c.solve(h.handle, spec, B, 1, h.n);
      FAIL() << "expected bad-spec for " << spec;
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad-spec") << spec;
    }
  }
  // The SAME connection still solves.
  EXPECT_TRUE(c.solve(h.handle, "cg/jacobi", B, 1, h.n).columns[0].converged());
}

TEST_F(ServerTest, MalformedHeaderGetsErrThenCloses) {
  Client c(path_);
  const std::string reply = c.request_raw("PUT 16x 32 1");
  EXPECT_EQ(reply.rfind("ERR bad-request", 0), 0u) << reply;
  // The server closed this connection (header desync discipline); the
  // daemon itself keeps serving new ones.
  Client c2(path_);
  EXPECT_EQ(c2.hello(), "nkrylovd 1");
}

TEST_F(ServerTest, BadMatrixStructureIsRejectedBeforePreparation) {
  CsrMatrix<double> a = test::scaled_laplace2d(8, 8);
  a.col_idx[1] = a.nrows + 5;  // out-of-range column
  Client c(path_);
  try {
    c.put_matrix(a, true);
    FAIL() << "expected bad-matrix";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), "bad-matrix");
    EXPECT_NE(std::string(e.what()).find("col_idx"), std::string::npos);
  }
  EXPECT_EQ(c.hello(), "nkrylovd 1") << "connection survives a bad matrix";
}

TEST_F(ServerTest, PoisonedRequestFailsPerColumnWhileOthersConverge) {
  Client c(path_);
  const Client::Handle h = c.put_standin("hpcg_4_4_4", 1);
  const std::size_t n = static_cast<std::size_t>(h.n);
  std::vector<double> B(3 * n, 1.0);
  B[n + 7] = std::nan("");  // column 1 poisoned

  const Client::SolveReply reply = c.solve(h.handle, "cg/bj;nblocks=8", B, 3, h.n);
  ASSERT_EQ(reply.columns.size(), 3u);
  EXPECT_TRUE(reply.columns[0].converged());
  EXPECT_FALSE(reply.columns[1].converged());
  EXPECT_TRUE(reply.columns[1].status == "non_finite" ||
              reply.columns[1].status == "invalid_input")
      << reply.columns[1].status;
  EXPECT_TRUE(reply.columns[2].converged());
  // And the daemon is still alive for the next request.
  EXPECT_EQ(c.hello(), "nkrylovd 1");
}

TEST_F(ServerTest, FreeDropsTheHandle) {
  Client c(path_);
  const Client::Handle h = c.put_standin("hpcg_4_4_4", 1);
  c.free_handle(h.handle);
  try {
    c.free_handle(h.handle);
    FAIL() << "expected unknown-handle on double free";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), "unknown-handle");
  }
  EXPECT_FALSE(c.put_standin("hpcg_4_4_4", 1).cached) << "freed handle re-prepares";
}

TEST_F(ServerTest, ManyConcurrentClientsAllConverge) {
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      try {
        Client c(path_);
        const Client::Handle h = c.put_standin("hpcg_4_4_4", 1);
        std::vector<double> B(static_cast<std::size_t>(h.n), 1.0);
        const auto reply = c.solve(h.handle, "cg/bj;nblocks=8", B, 1, h.n);
        if (!reply.columns[0].converged()) failures.fetch_add(1);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  Client c(path_);
  const auto stats = c.stats();
  EXPECT_EQ(stats.at("problem_misses"), 1u)
      << "eight clients, one preparation: the cache is the product";
  EXPECT_EQ(stats.at("problem_hits") + stats.at("problem_misses"),
            static_cast<std::uint64_t>(kClients));
}

}  // namespace
}  // namespace nk::service
