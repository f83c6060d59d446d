#ifndef NMCDR_TENSOR_SIMD_H_
#define NMCDR_TENSOR_SIMD_H_

#include <cstdint>
#include <cstring>

// Portable fixed-width lane abstraction for the explicitly vectorized
// kernel cores (tensor/vector_kernels.cc, serving/scoring_kernels.cc).
// Two interchangeable implementations sit behind the same tiny API:
//
//   - GNU vector extensions (__attribute__((vector_size))) on GCC/Clang:
//     the compiler lowers lane-wise + and * directly to SSE/AVX/NEON
//     without any per-ISA intrinsics in this repo.
//   - A plain fixed-trip struct fallback everywhere else; -O2/-O3
//     auto-vectorize the unrolled loops, and even un-vectorized the code
//     is correct.
//
// Bit-exactness contract: every operation here is LANE-WISE — lane j of
// the result is exactly the scalar IEEE op applied to lane j of the
// inputs, in the one obvious order. There is no horizontal reduction, no
// shuffle, no FMA (MulAdd is an explicit multiply THEN add; the TU using
// it compiles with -ffp-contract=off so the compiler may not contract the
// pair either). A kernel built from these lanes therefore computes each
// output element with the same float/double operation sequence as a
// scalar loop over the same element — which is the whole backend
// equivalence contract (tensor/backend.h).

#if defined(__GNUC__) && !defined(NMCDR_SIMD_FORCE_SCALAR)
#define NMCDR_SIMD_VECTOR_EXT 1
#else
#define NMCDR_SIMD_VECTOR_EXT 0
#endif

namespace nmcdr {
namespace simd {

/// Lane counts of the two register types. 8 floats / 4 doubles = 256-bit
/// registers (one AVX ymm, two SSE/NEON registers) — wide enough to feed
/// the FP units, narrow enough that a handful of accumulator tiles still
/// fit in the register file on 128-bit targets.
inline constexpr int kFloatLanes = 8;
inline constexpr int kDoubleLanes = 4;

#if NMCDR_SIMD_VECTOR_EXT

struct F32x8 {
  typedef float Native __attribute__((vector_size(kFloatLanes * sizeof(float))));
  Native v;
};

struct F64x4 {
  typedef double Native
      __attribute__((vector_size(kDoubleLanes * sizeof(double))));
  Native v;
};

inline F32x8 ZeroF32() { return F32x8{F32x8::Native{}}; }

inline F32x8 SplatF32(float x) {
  return F32x8{F32x8::Native{} + x};  // scalar-vector op broadcasts
}

inline F32x8 LoadF32(const float* p) {
  F32x8 r;
  std::memcpy(&r.v, p, sizeof(r.v));  // unaligned-safe
  return r;
}

inline void StoreF32(float* p, F32x8 a) { std::memcpy(p, &a.v, sizeof(a.v)); }

inline F32x8 Add(F32x8 a, F32x8 b) { return F32x8{a.v + b.v}; }
inline F32x8 Mul(F32x8 a, F32x8 b) { return F32x8{a.v * b.v}; }

inline F64x4 ZeroF64() { return F64x4{F64x4::Native{}}; }

inline F64x4 SplatF64(double x) { return F64x4{F64x4::Native{} + x}; }

/// Widens 4 consecutive floats to double lanes (exact — float -> double is
/// value-preserving).
inline F64x4 WidenLoadF64(const float* p) {
  typedef float Half __attribute__((vector_size(kDoubleLanes * sizeof(float))));
  Half h;
  std::memcpy(&h, p, sizeof(h));
  return F64x4{__builtin_convertvector(h, F64x4::Native)};
}

inline F64x4 Add(F64x4 a, F64x4 b) { return F64x4{a.v + b.v}; }
inline F64x4 Mul(F64x4 a, F64x4 b) { return F64x4{a.v * b.v}; }

/// Rounds each double lane to float (one rounding step, matching the
/// scalar static_cast<float>(acc)).
inline void NarrowStoreF32(float* p, F64x4 a) {
  typedef float Half __attribute__((vector_size(kDoubleLanes * sizeof(float))));
  const Half h = __builtin_convertvector(a.v, Half);
  std::memcpy(p, &h, sizeof(h));
}

/// Four float lanes: the accumulator width of the scoring kernels'
/// four-way dot (serving/scoring_kernels.cc), whose lanes must be exactly
/// the scalar reference's four accumulators.
struct F32x4 {
  typedef float Native __attribute__((vector_size(4 * sizeof(float))));
  Native v;
};

inline F32x4 ZeroF32x4() { return F32x4{F32x4::Native{}}; }

inline F32x4 LoadF32x4(const float* p) {
  F32x4 r;
  std::memcpy(&r.v, p, sizeof(r.v));
  return r;
}

inline void StoreF32x4(float* p, F32x4 a) {
  std::memcpy(p, &a.v, sizeof(a.v));
}

inline F32x4 Add(F32x4 a, F32x4 b) { return F32x4{a.v + b.v}; }
inline F32x4 Mul(F32x4 a, F32x4 b) { return F32x4{a.v * b.v}; }

/// Lanes 0..3 / 4..7 of an F32x8 (a register split, no arithmetic).
inline F32x4 LowHalf(F32x8 a) {
  F32x4 r;
  std::memcpy(&r.v, &a.v, sizeof(r.v));
  return r;
}

inline F32x4 HighHalf(F32x8 a) {
  F32x4 r;
  std::memcpy(&r.v, reinterpret_cast<const char*>(&a.v) + sizeof(r.v),
              sizeof(r.v));
  return r;
}

inline F32x8 Sub(F32x8 a, F32x8 b) { return F32x8{a.v - b.v}; }

/// Lane-wise `a > 0 ? a : 0`: NaN and -0 lanes become +0, exactly like
/// the scalar select (a compare and a blend, not a max).
inline F32x8 Relu(F32x8 a) {
  const F32x8::Native zero{};
  return F32x8{a.v > zero ? a.v : zero};
}

/// Converts 8 consecutive int8 codes to float lanes (exact).
inline F32x8 WidenLoadI8(const int8_t* p) {
  typedef int8_t I8x8 __attribute__((vector_size(kFloatLanes)));
  I8x8 q;
  std::memcpy(&q, p, sizeof(q));
  return F32x8{__builtin_convertvector(q, F32x8::Native)};
}

#else  // !NMCDR_SIMD_VECTOR_EXT — fixed-trip scalar fallback

struct F32x8 {
  float v[kFloatLanes];
};

struct F64x4 {
  double v[kDoubleLanes];
};

inline F32x8 ZeroF32() {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = 0.f;
  return r;
}

inline F32x8 SplatF32(float x) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = x;
  return r;
}

inline F32x8 LoadF32(const float* p) {
  F32x8 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}

inline void StoreF32(float* p, F32x8 a) { std::memcpy(p, a.v, sizeof(a.v)); }

inline F32x8 Add(F32x8 a, F32x8 b) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = a.v[j] + b.v[j];
  return r;
}

inline F32x8 Mul(F32x8 a, F32x8 b) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = a.v[j] * b.v[j];
  return r;
}

inline F64x4 ZeroF64() {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = 0.0;
  return r;
}

inline F64x4 SplatF64(double x) {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = x;
  return r;
}

inline F64x4 WidenLoadF64(const float* p) {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = static_cast<double>(p[j]);
  return r;
}

inline F64x4 Add(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = a.v[j] + b.v[j];
  return r;
}

inline F64x4 Mul(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int j = 0; j < kDoubleLanes; ++j) r.v[j] = a.v[j] * b.v[j];
  return r;
}

inline void NarrowStoreF32(float* p, F64x4 a) {
  for (int j = 0; j < kDoubleLanes; ++j) p[j] = static_cast<float>(a.v[j]);
}

struct F32x4 {
  float v[4];
};

inline F32x4 ZeroF32x4() { return F32x4{{0.f, 0.f, 0.f, 0.f}}; }

inline F32x4 LoadF32x4(const float* p) {
  F32x4 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}

inline void StoreF32x4(float* p, F32x4 a) { std::memcpy(p, a.v, sizeof(a.v)); }

inline F32x4 Add(F32x4 a, F32x4 b) {
  F32x4 r;
  for (int j = 0; j < 4; ++j) r.v[j] = a.v[j] + b.v[j];
  return r;
}

inline F32x4 Mul(F32x4 a, F32x4 b) {
  F32x4 r;
  for (int j = 0; j < 4; ++j) r.v[j] = a.v[j] * b.v[j];
  return r;
}

inline F32x4 LowHalf(F32x8 a) {
  F32x4 r;
  std::memcpy(r.v, a.v, sizeof(r.v));
  return r;
}

inline F32x4 HighHalf(F32x8 a) {
  F32x4 r;
  std::memcpy(r.v, a.v + 4, sizeof(r.v));
  return r;
}

inline F32x8 Sub(F32x8 a, F32x8 b) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = a.v[j] - b.v[j];
  return r;
}

inline F32x8 Relu(F32x8 a) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = a.v[j] > 0.f ? a.v[j] : 0.f;
  return r;
}

inline F32x8 WidenLoadI8(const int8_t* p) {
  F32x8 r;
  for (int j = 0; j < kFloatLanes; ++j) r.v[j] = static_cast<float>(p[j]);
  return r;
}

#endif  // NMCDR_SIMD_VECTOR_EXT

/// acc + a * b as two distinct IEEE operations. NOT an FMA: the using TU
/// compiles with -ffp-contract=off, so the product rounds before the add
/// exactly like the scalar reference kernels.
inline F32x8 MulAdd(F32x8 a, F32x8 b, F32x8 acc) { return Add(Mul(a, b), acc); }
inline F64x4 MulAdd(F64x4 a, F64x4 b, F64x4 acc) { return Add(Mul(a, b), acc); }

}  // namespace simd
}  // namespace nmcdr

#endif  // NMCDR_TENSOR_SIMD_H_
