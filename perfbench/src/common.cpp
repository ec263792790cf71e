#include <cmath>
#include <iostream>

#include "bench.hpp"
#include "base/rng.hpp"
#include "sparse/spmv.hpp"

namespace nkb {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  nk::SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL));
  return sm.next();
}

void InputDigest::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

int Tracer::begin(std::string name, int parent, std::uint64_t req) {
  if (!on_) return -1;
  const double t = now_s() - origin_;
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), t, t, parent, req});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_s() - origin_;
  const std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Outcome::check(const nk::CsrMatrix<double>& a, std::span<const double> b,
                    std::span<const double> x, const std::string& status,
                    double claimed_relres, const std::string& where) {
  const double relres = nk::relative_residual(a, x, b);
  const bool converged = status == "converged";
  ++attempted;
  if (!converged || !(relres <= kRtol)) {
    ++failed;
    std::cerr << "nkbench: " << where << ": " << status << ", true fp64 relres " << relres
              << " (rtol " << kRtol << ")\n";
  }
  if (converged) {
    worst_relres = std::max(worst_relres, relres);
    // The library accepts a solve whose true residual is below 1.5 rtol,
    // and reports that residual; a claim outside either is a wrong answer.
    const bool agrees = std::abs(relres - claimed_relres) <= 1e-2 * std::max(relres, claimed_relres);
    if (!(relres < 1.5 * kRtol) || !agrees) {
      ++violated;
      std::cerr << "nkbench: WRONG RESULT " << where << ": claimed converged at relres "
                << claimed_relres << ", recomputed " << relres << "\n";
    }
  }
}

}  // namespace nkb
