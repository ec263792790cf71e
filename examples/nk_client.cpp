// nk_client — thin command-line client for nkrylovd.
//
//   nk_client SOCKET hello
//   nk_client SOCKET put-gen STANDIN SCALE        -> prints the handle line
//   nk_client SOCKET solve HANDLE N SPEC K [SEED] -> K seeded RHS, prints COLs
//   nk_client SOCKET solve-gen STANDIN SCALE SPEC K [SEED]
//   nk_client SOCKET stats
//   nk_client SOCKET free HANDLE
//   nk_client SOCKET raw 'LINE'                   -> one raw request line
//   nk_client SOCKET shutdown
//
// solve/solve-gen generate uniform-[0,1) right-hand sides client-side
// (seeded, so runs are reproducible) and print one line per column plus a
// checksum of the returned solutions.  `raw` exists for protocol smoke
// tests: it sends the line verbatim and prints the single reply line —
// malformed lines exercise the daemon's ERR path.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/env.hpp"
#include "base/rng.hpp"
#include "core/fingerprint.hpp"
#include "core/service/client.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nk_client SOCKET hello|put-gen|solve|solve-gen|stats|free|raw|shutdown "
               "[args...]\n");
  return 2;
}

void print_handle(const nk::service::Client::Handle& h) {
  std::printf("HANDLE %s n=%lld nnz=%lld %s\n", nk::fingerprint_hex(h.handle).c_str(),
              static_cast<long long>(h.n), static_cast<long long>(h.nnz),
              h.cached ? "CACHED" : "NEW");
}

int run_solve(nk::service::Client& client, std::uint64_t handle, std::int64_t n,
              const std::string& spec, int k, std::uint64_t seed) {
  std::vector<double> B(static_cast<std::size_t>(k) * static_cast<std::size_t>(n));
  for (int c = 0; c < k; ++c) {
    const auto col = nk::random_vector<double>(static_cast<std::size_t>(n),
                                               seed + static_cast<std::uint64_t>(c), 0.0, 1.0);
    std::copy(col.begin(), col.end(), B.begin() + static_cast<std::size_t>(c) * n);
  }
  const nk::service::Client::SolveReply reply = client.solve(handle, spec, B, k, n);
  int failed = 0;
  double checksum = 0.0;
  for (const nk::service::WireColumn& c : reply.columns) {
    std::printf("col %d: %s iters=%d relres=%.3e%s%s\n", c.col, c.status.c_str(), c.iterations,
                c.relres, c.failure.empty() ? "" : " site=", c.failure.c_str());
    if (!c.converged()) ++failed;
  }
  for (const double v : reply.x) checksum += v;
  std::printf("solutions checksum %.17g, %d/%d converged\n", checksum,
              k - failed, k);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Solves run daemon-side, but a typo'd NKRYLOV_BACKEND in the client's
  // environment is still the operator asking for something that does not
  // exist — same one-line exit(2) as every other front-end.
  nk::require_backend_env_cli();
  if (argc < 3) return usage();
  const std::string socket_path = argv[1];
  const std::string cmd = argv[2];
  try {
    nk::service::Client client(socket_path);
    if (cmd == "hello" && argc == 3) {
      std::printf("%s\n", client.hello().c_str());
    } else if (cmd == "put-gen" && argc == 5) {
      print_handle(client.put_standin(argv[3], std::atoi(argv[4])));
    } else if (cmd == "solve" && (argc == 7 || argc == 8)) {
      std::uint64_t handle = 0;
      if (!nk::parse_fingerprint_hex(argv[3], handle)) {
        std::fprintf(stderr, "nk_client: malformed handle '%s'\n", argv[3]);
        return 2;
      }
      const std::int64_t n = std::atoll(argv[4]);
      const int k = std::atoi(argv[6]);
      const std::uint64_t seed = argc == 8 ? std::strtoull(argv[7], nullptr, 10) : 7;
      return run_solve(client, handle, n, argv[5], k, seed);
    } else if (cmd == "solve-gen" && (argc == 7 || argc == 8)) {
      const nk::service::Client::Handle h = client.put_standin(argv[3], std::atoi(argv[4]));
      print_handle(h);
      const int k = std::atoi(argv[6]);
      const std::uint64_t seed = argc == 8 ? std::strtoull(argv[7], nullptr, 10) : 7;
      return run_solve(client, h.handle, h.n, argv[5], k, seed);
    } else if (cmd == "stats" && argc == 3) {
      for (const auto& [key, value] : client.stats())
        std::printf("%s=%llu\n", key.c_str(), static_cast<unsigned long long>(value));
    } else if (cmd == "free" && argc == 4) {
      std::uint64_t handle = 0;
      if (!nk::parse_fingerprint_hex(argv[3], handle)) {
        std::fprintf(stderr, "nk_client: malformed handle '%s'\n", argv[3]);
        return 2;
      }
      client.free_handle(handle);
      std::printf("OK\n");
    } else if (cmd == "raw" && argc == 4) {
      std::printf("%s\n", client.request_raw(argv[3]).c_str());
    } else if (cmd == "shutdown" && argc == 3) {
      client.shutdown_server();
      std::printf("OK\n");
    } else {
      return usage();
    }
  } catch (const nk::service::ProtocolError& e) {
    std::fprintf(stderr, "nk_client: server error [%s] %s\n", e.code().c_str(), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nk_client: %s\n", e.what());
    return 1;
  }
  return 0;
}
