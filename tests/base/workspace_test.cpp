// Tests for SolverWorkspace (base/workspace.hpp): grow-only slab reuse,
// allocation accounting, and typed aliasing across setup rounds.
#include <gtest/gtest.h>

#include <cstdint>
#if defined(__linux__)
#include <unistd.h>

#include <fstream>
#endif

#include "base/half.hpp"
#include "base/workspace.hpp"

namespace nk {
namespace {

TEST(SolverWorkspace, GrowOnlyReuse) {
  SolverWorkspace ws;
  auto a = ws.get<double>("v", 100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(ws.allocations(), 1u);
  EXPECT_EQ(ws.buffers(), 1u);
  EXPECT_EQ(ws.bytes(), 100 * sizeof(double));

  // Same size: no growth, same backing memory.
  auto b = ws.get<double>("v", 100);
  EXPECT_EQ(ws.allocations(), 1u);
  EXPECT_EQ(b.data(), a.data());

  // Smaller: no growth.
  auto c = ws.get<double>("v", 10);
  EXPECT_EQ(ws.allocations(), 1u);
  EXPECT_EQ(c.size(), 10u);

  // Larger: grows once.
  auto d = ws.get<double>("v", 200);
  EXPECT_EQ(ws.allocations(), 2u);
  EXPECT_EQ(d.size(), 200u);
  EXPECT_EQ(ws.bytes(), 200 * sizeof(double));
}

TEST(SolverWorkspace, DistinctKeysDistinctSlabs) {
  SolverWorkspace ws;
  auto a = ws.get<float>("lvl0.V", 64);
  auto b = ws.get<float>("lvl1.V", 64);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(ws.buffers(), 2u);
}

TEST(SolverWorkspace, NewBytesAreZeroed) {
  SolverWorkspace ws;
  auto a = ws.get<double>("z", 32);
  for (double v : a) EXPECT_EQ(v, 0.0);
}

TEST(SolverWorkspace, TypeReuseOnSameKey) {
  // A key reused at a different element type (e.g. a bridge rebuilt at a
  // different inner precision) aliases the same slab when it fits.
  SolverWorkspace ws;
  auto f = ws.get<float>("bridge.rin", 16);
  f[0] = 1.0f;
  auto h = ws.get<half>("bridge.rin", 16);  // half the bytes: reuses
  EXPECT_EQ(ws.allocations(), 1u);
  EXPECT_EQ(static_cast<void*>(h.data()), static_cast<void*>(f.data()));
}

TEST(SolverWorkspace, ReleaseDropsEverything) {
  SolverWorkspace ws;
  ws.get<double>("a", 8);
  ws.get<double>("b", 8);
  ws.release();
  EXPECT_EQ(ws.buffers(), 0u);
  EXPECT_EQ(ws.bytes(), 0u);
  EXPECT_EQ(ws.allocations(), 0u);
}

TEST(SolverWorkspace, ZeroLengthGet) {
  SolverWorkspace ws;
  auto a = ws.get<double>("empty", 0);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(ws.bytes(), 0u);
}

TEST(SolverWorkspace, SlabsAreCacheLineAligned) {
  // The SELL/SpMM SIMD kernels and the F16C bulk converters read solver
  // buffers with 32-byte vector ops; slabs guarantee 64 (one cache line),
  // including across growth reallocations.
  SolverWorkspace ws;
  auto check = [](const void* p) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % SolverWorkspace::kSlabAlign, 0u);
  };
  check(ws.get<double>("a", 1).data());    // odd sizes must not break alignment
  check(ws.get<float>("b", 3).data());
  check(ws.get<half>("c", 7).data());
  check(ws.get<unsigned char>("d", 13).data());
  for (int round = 1; round <= 4; ++round)
    check(ws.get<double>("grow", static_cast<std::size_t>(round) * 37).data());
}

TEST(SolverWorkspace, LargeSlabsAreZeroedThroughFirstTouch) {
  // Big enough to come from fresh zero-on-demand pages rather than a
  // recycled heap block; every byte must still read as zero.
  SolverWorkspace ws;
  auto a = ws.get<double>("big", 1 << 18);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], 0.0) << i;
  // Growth copies the old content; the new tail reads as zero.
  for (std::size_t i = 0; i < 64; ++i) a[i] = 1.0;
  auto b = ws.get<double>("big", 1 << 19);
  for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(b[i], 1.0) << i;
  for (std::size_t i = 64; i < (std::size_t{1} << 18); ++i) ASSERT_EQ(b[i], 0.0) << i;
  for (std::size_t i = std::size_t{1} << 18; i < b.size(); ++i)
    ASSERT_EQ(b[i], 0.0) << i;
}

TEST(SolverWorkspace, GrowthPreservesContentAndZeroesTail) {
  SolverWorkspace ws;
  auto a = ws.get<double>("v", 8);
  for (std::size_t i = 0; i < 8; ++i) a[i] = static_cast<double>(i + 1);
  auto b = ws.get<double>("v", 32);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(b[i], static_cast<double>(i + 1));
  for (std::size_t i = 8; i < 32; ++i) EXPECT_EQ(b[i], 0.0);
  EXPECT_EQ(ws.allocations(), 2u);
}

#if defined(__linux__)
/// Resident set size in bytes, from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0, rss_pages = 0;
  statm >> size_pages >> rss_pages;
  return rss_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

TEST(SolverWorkspace, SlabsAreCommittedLazily) {
  // A grown slab commits no memory until it is written: FGMRES(100)'s
  // outer basis is reserved at 201 columns, and a solve that converges in
  // two iterations must pay for the five columns it touches only.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_MEMORY__)
  GTEST_SKIP() << "the ThreadSanitizer/MemorySanitizer allocators clear calloc blocks eagerly";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(memory_sanitizer)
  GTEST_SKIP() << "the ThreadSanitizer/MemorySanitizer allocators clear calloc blocks eagerly";
#endif
#endif
  SolverWorkspace ws;
  const std::int64_t before = resident_bytes();
  const auto big = ws.get<double>("big", std::size_t{1} << 26);  // 512 MiB
  const std::int64_t after = resident_bytes();
  ASSERT_EQ(big.size(), std::size_t{1} << 26);
  EXPECT_LT(after - before, std::int64_t{32} << 20)
      << "RSS grew by " << (after - before) / (1 << 20) << " MiB";
}
#endif

}  // namespace
}  // namespace nk
