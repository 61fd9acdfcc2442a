// The SIMD abstraction must match scalar semantics lane-for-lane on both
// backends (AVX2 and plain scalar): exact i32 wrap, IEEE single-rounding
// float ops, the f64->f32->f64 conversion sandwich the VM uses for f32
// rows, low-word extraction / sign-extension against the 8-byte `Value`
// row layout, gathers and the horizontal reductions. The forced-scalar CI
// job runs this same file against the scalar backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "common/simd.h"

namespace haocl::simd {
namespace {

TEST(VmSimd, ReportsBackend) {
  EXPECT_EQ(kWidth, 4);
  EXPECT_NE(kIsaName[0], '\0');
#if defined(HAOCL_SIMD_FORCE_SCALAR)
  EXPECT_FALSE(kEnabled);
#endif
}

TEST(VmSimd, I32ArithWrapsLikeScalar) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::int32_t> dist(INT32_MIN, INT32_MAX);
  for (int trial = 0; trial < 200; ++trial) {
    std::int32_t a[4], b[4], out[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = dist(rng);
      b[i] = dist(rng);
    }
    const VecI32 va = VecI32::Load(a), vb = VecI32::Load(b);
    Add(va, vb).Store(out);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(out[i], static_cast<std::int32_t>(
                            static_cast<std::uint32_t>(a[i]) +
                            static_cast<std::uint32_t>(b[i])));
    }
    Sub(va, vb).Store(out);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(out[i], static_cast<std::int32_t>(
                            static_cast<std::uint32_t>(a[i]) -
                            static_cast<std::uint32_t>(b[i])));
    }
    Mul(va, vb).Store(out);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(out[i], static_cast<std::int32_t>(
                            static_cast<std::uint32_t>(a[i]) *
                            static_cast<std::uint32_t>(b[i])));
    }
    Min(va, vb).Store(out);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], a[i] < b[i] ? a[i] : b[i]);
    Max(va, vb).Store(out);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], a[i] > b[i] ? a[i] : b[i]);
  }
}

TEST(VmSimd, I32CompareMasksAndBoolRows) {
  const std::int32_t a[4] = {1, -5, 7, INT32_MIN};
  const std::int32_t b[4] = {1, 3, -7, INT32_MAX};
  const VecI32 va = VecI32::Load(a), vb = VecI32::Load(b);

  std::int32_t out[4];
  CmpEq(va, vb).Store(out);
  EXPECT_EQ(out[0], -1);
  EXPECT_EQ(out[1], 0);
  CmpLt(va, vb).Store(out);
  EXPECT_EQ(out[1], -1);
  EXPECT_EQ(out[2], 0);
  EXPECT_EQ(out[3], -1);
  CmpGt(va, vb).Store(out);
  EXPECT_EQ(out[2], -1);
  Not(CmpEq(va, vb)).Store(out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], -1);

  // The VM's compare row: mask & 1, sign-extended into 8-byte Value lanes.
  std::int64_t row[4];
  And(CmpLt(va, vb), VecI32::Broadcast(1)).StoreSignExt64(row);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(row[i], a[i] < b[i] ? 1 : 0);
}

TEST(VmSimd, ValueRowLowWordRoundTrip) {
  // A canonical-i32 Value row: 8-byte lanes holding sign-extended i32.
  std::int64_t row[4] = {-3, 0x7fffffffLL, INT64_C(-2147483648), 42};
  const VecI32 low = VecI32::LoadLow64(row);
  std::int32_t out[4];
  low.Store(out);
  EXPECT_EQ(out[0], -3);
  EXPECT_EQ(out[1], 0x7fffffff);
  EXPECT_EQ(out[2], INT32_MIN);
  EXPECT_EQ(out[3], 42);

  std::int64_t sext[4];
  low.StoreSignExt64(sext);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sext[i], row[i]);

  std::uint64_t zext[4];
  low.StoreZeroExt64(zext);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(zext[i], static_cast<std::uint32_t>(row[i]));
  }
}

TEST(VmSimd, F32MatchesScalarRoundingExactly) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> dist(-1e4f, 1e4f);
  for (int trial = 0; trial < 200; ++trial) {
    float a[4], b[4], out[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = dist(rng);
      b[i] = dist(rng);
    }
    const VecF32 va = VecF32::Load(a), vb = VecF32::Load(b);
    Add(va, vb).Store(out);
    for (int i = 0; i < 4; ++i) {
      const float expect = a[i] + b[i];
      EXPECT_EQ(0, std::memcmp(&out[i], &expect, 4));
    }
    Mul(va, vb).Store(out);
    for (int i = 0; i < 4; ++i) {
      const float expect = a[i] * b[i];
      EXPECT_EQ(0, std::memcmp(&out[i], &expect, 4));
    }
    Div(va, vb).Store(out);
    for (int i = 0; i < 4; ++i) {
      const float expect = a[i] / b[i];
      EXPECT_EQ(0, std::memcmp(&out[i], &expect, 4));
    }
  }
}

TEST(VmSimd, F64F32ConversionSandwichIsByteExact) {
  // The engine stores f32 lanes widened to double; its vector tier
  // converts f64->f32, operates, and widens back. That sequence must be
  // byte-identical to the scalar static_cast chain.
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (int trial = 0; trial < 200; ++trial) {
    double a[4], b[4], out[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = dist(rng);
      b[i] = dist(rng);
    }
    const VecF64 va = VecF64::Load(a), vb = VecF64::Load(b);
    // Two separate roundings — mul then add — exactly like the VM's MAC.
    const VecF32 m = Mul(ToF32(va), ToF32(vb));
    const VecF64 widened = ToF64(Add(ToF32(va), m));
    widened.Store(out);
    for (int i = 0; i < 4; ++i) {
      const float sm = static_cast<float>(a[i]) * static_cast<float>(b[i]);
      const float sr = static_cast<float>(a[i]) + sm;
      const double expect = sr;
      EXPECT_EQ(0, std::memcmp(&out[i], &expect, 8));
    }
  }
}

TEST(VmSimd, F64ArithMatchesScalar) {
  const double a[4] = {1.5, -2.25, 1e300, -0.0};
  const double b[4] = {2.0, 0.5, 1e-300, 3.0};
  double out[4];
  const VecF64 va = VecF64::Load(a), vb = VecF64::Load(b);
  Add(va, vb).Store(out);
  for (int i = 0; i < 4; ++i) {
    const double expect = a[i] + b[i];
    EXPECT_EQ(0, std::memcmp(&out[i], &expect, 8));
  }
  Sub(va, vb).Store(out);
  for (int i = 0; i < 4; ++i) {
    const double expect = a[i] - b[i];
    EXPECT_EQ(0, std::memcmp(&out[i], &expect, 8));
  }
  Mul(va, vb).Store(out);
  for (int i = 0; i < 4; ++i) {
    const double expect = a[i] * b[i];
    EXPECT_EQ(0, std::memcmp(&out[i], &expect, 8));
  }
  Div(va, vb).Store(out);
  for (int i = 0; i < 4; ++i) {
    const double expect = a[i] / b[i];
    EXPECT_EQ(0, std::memcmp(&out[i], &expect, 8));
  }
}

TEST(VmSimd, GatherReadsArbitraryAndUnalignedElementOffsets) {
  std::vector<float> pool(64);
  for (int i = 0; i < 64; ++i) pool[static_cast<std::size_t>(i)] = 0.5f * i;
  const std::int32_t idx[4] = {63, 0, 17, 4};
  float fout[4];
  VecF32::Gather(pool.data(), VecI32::Load(idx)).Store(fout);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fout[i], pool[static_cast<std::size_t>(idx[i])]);
  }

  std::vector<double> dpool(32);
  for (int i = 0; i < 32; ++i) dpool[static_cast<std::size_t>(i)] = -1.25 * i;
  const std::int32_t didx[4] = {31, 2, 2, 0};
  double dout[4];
  VecF64::Gather(dpool.data(), VecI32::Load(didx)).Store(dout);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(dout[i], dpool[static_cast<std::size_t>(didx[i])]);
  }
}

TEST(VmSimd, HorizontalReductions) {
  const std::int32_t v[4] = {5, -9, 120, 3};
  EXPECT_EQ(HMin(VecI32::Load(v)), -9);
  EXPECT_EQ(HMax(VecI32::Load(v)), 120);
}

}  // namespace
}  // namespace haocl::simd
