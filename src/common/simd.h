// Fixed-width host SIMD abstraction for the oclc VM's lane-batched engine.
//
// The batch engine stores a work-group's lanes slot-major, so one bytecode
// dispatch walks contiguous rows of 8-byte `Value`s. These wrappers give it
// a 4-lane vector tier over those rows: `VecF32`/`VecF64`/`VecI32` with
// load/store/gather, arithmetic, compare and the conversions the VM calls.
// Two backends, chosen at compile time: AVX2 when `__AVX2__` is defined,
// and a plain-scalar backend everywhere else (x86 without `-mavx2`,
// aarch64 and any other host). `-DHAOCL_SIMD_FORCE_SCALAR` (the
// `HAOCL_ENABLE_SIMD=OFF` CMake option) forces the scalar backend.
//
// Bit-identity contract: every lane of every operation rounds exactly like
// the scalar code it replaces. f32 work on Value rows is a
// cvt-f64→f32 / op / cvt-f32→f64 sandwich, which reproduces
// `static_cast<float>(v.f)` + float op + implicit widen byte-for-byte
// (both conversions are single correctly-rounded IEEE operations). i32 ops
// wrap in 32 bits and re-canonicalize by sign-extension, matching the
// interpreter's u32-wrap + sign-extend storage. There is no fused
// multiply-add: every VM multiply-add is Mul then Add, two roundings.
//
// Width is fixed at 4 logical lanes on both backends so callers never
// branch on ISA: AVX2 uses 128-bit f32/i32 ops and 256-bit f64 ops.
#pragma once

#include <cstdint>
#include <cstring>

#if !defined(HAOCL_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define HAOCL_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace haocl::simd {

inline constexpr int kWidth = 4;

#if defined(HAOCL_SIMD_AVX2)
inline constexpr bool kEnabled = true;
inline constexpr const char kIsaName[] = "avx2";
#else
inline constexpr bool kEnabled = false;
inline constexpr const char kIsaName[] = "scalar";
#endif

// ---------------------------------------------------------------- AVX2

#if defined(HAOCL_SIMD_AVX2)

struct VecI32 {
  __m128i v;
  static VecI32 Load(const std::int32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static VecI32 Broadcast(std::int32_t x) { return {_mm_set1_epi32(x)}; }
  // Low 32 bits of four consecutive little-endian 64-bit lanes — the shape
  // of a canonical-i32 `Value` row.
  static VecI32 LoadLow64(const void* p) {
    const __m256i wide =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        wide, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    return {_mm256_castsi256_si128(packed)};
  }
  void Store(std::int32_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  void StoreSignExt64(void* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm256_cvtepi32_epi64(v));
  }
  void StoreZeroExt64(void* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm256_cvtepu32_epi64(v));
  }
};

inline VecI32 Add(VecI32 a, VecI32 b) { return {_mm_add_epi32(a.v, b.v)}; }
inline VecI32 Sub(VecI32 a, VecI32 b) { return {_mm_sub_epi32(a.v, b.v)}; }
inline VecI32 Mul(VecI32 a, VecI32 b) { return {_mm_mullo_epi32(a.v, b.v)}; }
inline VecI32 And(VecI32 a, VecI32 b) { return {_mm_and_si128(a.v, b.v)}; }
inline VecI32 Not(VecI32 a) {
  return {_mm_xor_si128(a.v, _mm_set1_epi32(-1))};
}
inline VecI32 CmpEq(VecI32 a, VecI32 b) { return {_mm_cmpeq_epi32(a.v, b.v)}; }
inline VecI32 CmpLt(VecI32 a, VecI32 b) { return {_mm_cmplt_epi32(a.v, b.v)}; }
inline VecI32 CmpGt(VecI32 a, VecI32 b) { return {_mm_cmpgt_epi32(a.v, b.v)}; }
inline VecI32 Min(VecI32 a, VecI32 b) { return {_mm_min_epi32(a.v, b.v)}; }
inline VecI32 Max(VecI32 a, VecI32 b) { return {_mm_max_epi32(a.v, b.v)}; }

struct VecF32 {
  __m128 v;
  static VecF32 Load(const float* p) { return {_mm_loadu_ps(p)}; }
  static VecF32 Broadcast(float x) { return {_mm_set1_ps(x)}; }
  static VecF32 Gather(const float* base, VecI32 idx) {
    // Masked form with a zeroed source: the plain _mm_i32gather_ps expands
    // through _mm_undefined_ps and trips GCC's -Wmaybe-uninitialized.
    return {_mm_mask_i32gather_ps(_mm_setzero_ps(), base, idx.v,
                                  _mm_castsi128_ps(_mm_set1_epi32(-1)), 4)};
  }
  void Store(float* p) const { _mm_storeu_ps(p, v); }
};

inline VecF32 Add(VecF32 a, VecF32 b) { return {_mm_add_ps(a.v, b.v)}; }
inline VecF32 Sub(VecF32 a, VecF32 b) { return {_mm_sub_ps(a.v, b.v)}; }
inline VecF32 Mul(VecF32 a, VecF32 b) { return {_mm_mul_ps(a.v, b.v)}; }
inline VecF32 Div(VecF32 a, VecF32 b) { return {_mm_div_ps(a.v, b.v)}; }

struct VecF64 {
  __m256d v;
  static VecF64 Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecF64 Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecF64 Gather(const double* base, VecI32 idx) {
    // Masked form with a zeroed source (see VecF32::Gather).
    return {_mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), base, idx.v,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8)};
  }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
};

inline VecF64 Add(VecF64 a, VecF64 b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecF64 Sub(VecF64 a, VecF64 b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecF64 Mul(VecF64 a, VecF64 b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecF64 Div(VecF64 a, VecF64 b) { return {_mm256_div_pd(a.v, b.v)}; }
inline VecF32 ToF32(VecF64 a) { return {_mm256_cvtpd_ps(a.v)}; }
inline VecF64 ToF64(VecF32 a) { return {_mm256_cvtps_pd(a.v)}; }

// ------------------------------------------------------- plain scalar

#else

struct VecI32 {
  std::int32_t e[4];
  static VecI32 Load(const std::int32_t* p) {
    VecI32 r;
    std::memcpy(r.e, p, sizeof(r.e));
    return r;
  }
  static VecI32 Broadcast(std::int32_t x) { return {{x, x, x, x}}; }
  static VecI32 LoadLow64(const void* p) {
    VecI32 r;
    const unsigned char* bytes = reinterpret_cast<const unsigned char*>(p);
    for (int i = 0; i < 4; ++i) std::memcpy(&r.e[i], bytes + i * 8, 4);
    return r;
  }
  void Store(std::int32_t* p) const { std::memcpy(p, e, sizeof(e)); }
  void StoreSignExt64(void* p) const {
    unsigned char* bytes = reinterpret_cast<unsigned char*>(p);
    for (int i = 0; i < 4; ++i) {
      const std::int64_t wide = e[i];
      std::memcpy(bytes + i * 8, &wide, 8);
    }
  }
  void StoreZeroExt64(void* p) const {
    unsigned char* bytes = reinterpret_cast<unsigned char*>(p);
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t wide = static_cast<std::uint32_t>(e[i]);
      std::memcpy(bytes + i * 8, &wide, 8);
    }
  }
};

namespace detail {
template <typename V, typename Fn>
inline V Map2I(V a, V b, Fn fn) {
  V r;
  for (int i = 0; i < 4; ++i) r.e[i] = fn(a.e[i], b.e[i]);
  return r;
}
}  // namespace detail

inline VecI32 Add(VecI32 a, VecI32 b) {
  return detail::Map2I(a, b, [](std::int32_t x, std::int32_t y) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(x) +
                                     static_cast<std::uint32_t>(y));
  });
}
inline VecI32 Sub(VecI32 a, VecI32 b) {
  return detail::Map2I(a, b, [](std::int32_t x, std::int32_t y) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(x) -
                                     static_cast<std::uint32_t>(y));
  });
}
inline VecI32 Mul(VecI32 a, VecI32 b) {
  return detail::Map2I(a, b, [](std::int32_t x, std::int32_t y) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(x) *
                                     static_cast<std::uint32_t>(y));
  });
}
inline VecI32 And(VecI32 a, VecI32 b) {
  return detail::Map2I(a, b,
                       [](std::int32_t x, std::int32_t y) { return x & y; });
}
inline VecI32 Not(VecI32 a) {
  VecI32 r;
  for (int i = 0; i < 4; ++i) r.e[i] = ~a.e[i];
  return r;
}
inline VecI32 CmpEq(VecI32 a, VecI32 b) {
  return detail::Map2I(
      a, b, [](std::int32_t x, std::int32_t y) { return x == y ? -1 : 0; });
}
inline VecI32 CmpLt(VecI32 a, VecI32 b) {
  return detail::Map2I(
      a, b, [](std::int32_t x, std::int32_t y) { return x < y ? -1 : 0; });
}
inline VecI32 CmpGt(VecI32 a, VecI32 b) {
  return detail::Map2I(
      a, b, [](std::int32_t x, std::int32_t y) { return x > y ? -1 : 0; });
}
inline VecI32 Min(VecI32 a, VecI32 b) {
  return detail::Map2I(
      a, b, [](std::int32_t x, std::int32_t y) { return x < y ? x : y; });
}
inline VecI32 Max(VecI32 a, VecI32 b) {
  return detail::Map2I(
      a, b, [](std::int32_t x, std::int32_t y) { return x > y ? x : y; });
}

struct VecF32 {
  float e[4];
  static VecF32 Load(const float* p) {
    VecF32 r;
    std::memcpy(r.e, p, sizeof(r.e));
    return r;
  }
  static VecF32 Broadcast(float x) { return {{x, x, x, x}}; }
  static VecF32 Gather(const float* base, VecI32 idx) {
    VecF32 r;
    const unsigned char* bytes = reinterpret_cast<const unsigned char*>(base);
    for (int i = 0; i < 4; ++i) {
      std::memcpy(&r.e[i], bytes + static_cast<std::int64_t>(idx.e[i]) * 4, 4);
    }
    return r;
  }
  void Store(float* p) const { std::memcpy(p, e, sizeof(e)); }
};

inline VecF32 Add(VecF32 a, VecF32 b) {
  VecF32 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i] + b.e[i];
  return r;
}
inline VecF32 Sub(VecF32 a, VecF32 b) {
  VecF32 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i] - b.e[i];
  return r;
}
inline VecF32 Mul(VecF32 a, VecF32 b) {
  VecF32 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i] * b.e[i];
  return r;
}
inline VecF32 Div(VecF32 a, VecF32 b) {
  VecF32 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i] / b.e[i];
  return r;
}

struct VecF64 {
  double e[4];
  static VecF64 Load(const double* p) {
    VecF64 r;
    std::memcpy(r.e, p, sizeof(r.e));
    return r;
  }
  static VecF64 Broadcast(double x) { return {{x, x, x, x}}; }
  static VecF64 Gather(const double* base, VecI32 idx) {
    VecF64 r;
    const unsigned char* bytes = reinterpret_cast<const unsigned char*>(base);
    for (int i = 0; i < 4; ++i) {
      std::memcpy(&r.e[i], bytes + static_cast<std::int64_t>(idx.e[i]) * 8, 8);
    }
    return r;
  }
  void Store(double* p) const { std::memcpy(p, e, sizeof(e)); }
};

inline VecF64 Add(VecF64 a, VecF64 b) {
  VecF64 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i] + b.e[i];
  return r;
}
inline VecF64 Sub(VecF64 a, VecF64 b) {
  VecF64 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i] - b.e[i];
  return r;
}
inline VecF64 Mul(VecF64 a, VecF64 b) {
  VecF64 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i] * b.e[i];
  return r;
}
inline VecF64 Div(VecF64 a, VecF64 b) {
  VecF64 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i] / b.e[i];
  return r;
}
inline VecF32 ToF32(VecF64 a) {
  VecF32 r;
  for (int i = 0; i < 4; ++i) r.e[i] = static_cast<float>(a.e[i]);
  return r;
}
inline VecF64 ToF64(VecF32 a) {
  VecF64 r;
  for (int i = 0; i < 4; ++i) r.e[i] = a.e[i];
  return r;
}

#endif

// --------------------------------------------------------- shared bits

// Horizontal reductions used by whole-chunk bounds prechecks.
inline std::int32_t HMin(VecI32 v) {
  alignas(16) std::int32_t e[4];
  v.Store(e);
  std::int32_t m = e[0];
  for (int i = 1; i < 4; ++i) m = e[i] < m ? e[i] : m;
  return m;
}
inline std::int32_t HMax(VecI32 v) {
  alignas(16) std::int32_t e[4];
  v.Store(e);
  std::int32_t m = e[0];
  for (int i = 1; i < 4; ++i) m = e[i] > m ? e[i] : m;
  return m;
}

}  // namespace haocl::simd
