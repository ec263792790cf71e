// Tests for SolverWorkspace (base/workspace.hpp): grow-only slab reuse,
// allocation accounting, and typed aliasing across setup rounds.
#include <gtest/gtest.h>

#include <cstdint>

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
  // Big enough to span many 64 KiB first-touch chunks and engage the
  // parallel path on multi-thread runs; every byte must still be zero.
  SolverWorkspace ws;
  auto a = ws.get<double>("big", 1 << 18);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], 0.0) << i;
  // Growth first-touches only the new tail; content survives, tail is zero.
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

}  // namespace
}  // namespace nk
