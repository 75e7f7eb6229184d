// Vectorized kernel backend: packed-panel microkernels behind the
// KernelBackend seam.
//
// fp32 GEMM follows the classic pack-and-tile scheme: B is packed once into
// column panels of kNr floats (zero-padded), each row tile of kMr rows packs
// A k-major, and the microkernel keeps the full kMr x kNr accumulator block
// in registers across the whole K loop — the scalar kernel's bottleneck is
// exactly the per-k C load/modify/store traffic this removes. The int8
// kernel packs activation columns k-pair-interleaved so one madd(u8->i16,
// s8->i16) instruction accumulates two K steps into exact i32 lanes (no
// i16 saturation: |u8 x s8| <= 255*128 and the pair sum fits i32). Narrow
// products (fp32 n <= 6, int8 n <= 4: the deep convs at small inputs) skip
// the 16-wide panels — see the narrow-N sections below.
//
// Two implementations live in this TU and are chosen at runtime via cpuid:
// AVX2/FMA function-multiversioned kernels (target attributes, so no global
// ISA flags are needed), and a portable register-tile relying on
// `#pragma omp simd` (-fopenmp-simd is applied to this file only; the
// pragma is advisory and compiles to correct scalar code anywhere).
//
// Determinism: row-panel partitioning mirrors the scalar backend — panel
// boundaries are multiples of the register tile, so every output element
// sees the same accumulation order at any thread count. fp32 results differ
// from the scalar backend only by FMA/reduction rounding (ULP-level, see
// DESIGN.md section 11); int8 results are bit-exact by integer associativity.
#include <cstring>
#include <vector>

#include "tensor/backend.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NETCUT_SIMD_X86 1
#include <immintrin.h>
#define NETCUT_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define NETCUT_SIMD_X86 0
#endif

namespace netcut::tensor {

namespace {

constexpr int kMr = 6;   // fp32 rows per register tile
constexpr int kNr = 16;  // fp32 cols per register tile (two 8-float lanes)
constexpr int kMrI8 = 4;
constexpr int kNrI8 = 16;
constexpr std::int64_t kParallelFlopCutoff = 1 << 16;

// Narrow-N paths (AVX2 only). At n <= kNarrowN the 6x16 tile wastes most of
// its FMAs on zero-padded columns, so the tile flips: kMrNarrow rows of A
// fill the two 8-float lanes and each of the n columns of B is broadcast.
// 2n accumulators + 2 A vectors + 1 broadcast must fit the 16 ymm
// registers, which caps n at 6. A is packed in kKcNarrow-deep blocks (a
// 16 KB tile, L1-resident); accumulators carry across blocks through an
// exact store/reload, so each output is still one k-ascending FMA chain.
constexpr int kNarrowN = 6;
constexpr int kMrNarrow = 16;
constexpr int kKcNarrow = 256;
// int8 takes a K-vectorised dot per output below this width.
constexpr int kNarrowNI8 = 4;

/// Pack buffers are handed out 64-byte aligned so panel rows (64 bytes for
/// both the fp32 and int8 tiles) never straddle cache lines.
template <typename T>
T* aligned_slot(std::vector<T>& buf, std::size_t need) {
  constexpr std::size_t kAlign = 64 / sizeof(T);
  if (buf.size() < need + kAlign) buf.resize(need + kAlign);
  const std::size_t addr = reinterpret_cast<std::size_t>(buf.data());
  const std::size_t off = (64 - addr % 64) % 64 / sizeof(T);
  return buf.data() + off;
}

bool cpu_has_avx2_fma() {
#if NETCUT_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const bool kUseAvx2 = cpu_has_avx2_fma();

// ---------------------------------------------------------------------------
// fp32 packing
// ---------------------------------------------------------------------------

/// B[KxN] -> panels of kNr columns, k-major within a panel, zero-padded:
/// dst[p * k * kNr + kk * kNr + jj] = b[kk][p * kNr + jj].
void pack_b_fp32(const float* b, int k, int n, float* dst) {
  const int panels = (n + kNr - 1) / kNr;
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kNr;
    const int jw = (j0 + kNr <= n) ? kNr : n - j0;
    float* panel = dst + static_cast<std::int64_t>(p) * k * kNr;
    for (int kk = 0; kk < k; ++kk) {
      const float* src = b + static_cast<std::int64_t>(kk) * n + j0;
      float* out = panel + static_cast<std::int64_t>(kk) * kNr;
      for (int jj = 0; jj < jw; ++jj) out[jj] = src[jj];
      for (int jj = jw; jj < kNr; ++jj) out[jj] = 0.0f;
    }
  }
}

/// Rows [i0, i0+mr) of A[MxK] -> k-major tile, zero-padded to kMr rows:
/// dst[kk * kMr + r] = a[i0 + r][kk].
void pack_a_fp32(const float* a, int k, int i0, int mr, float* dst) {
  for (int kk = 0; kk < k; ++kk) {
    float* out = dst + static_cast<std::int64_t>(kk) * kMr;
    for (int r = 0; r < mr; ++r) out[r] = a[static_cast<std::int64_t>(i0 + r) * k + kk];
    for (int r = mr; r < kMr; ++r) out[r] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// fp32 microkernels: c[kMr x kNr] (+)= ap * bp over kc steps
// ---------------------------------------------------------------------------

#if NETCUT_SIMD_X86
NETCUT_TARGET_AVX2 void micro_fp32_avx2(const float* ap, const float* bp, int kc, float* c,
                                        int ldc, bool add) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  const auto step = [&](const float* bk, const float* ak) {
    const __m256 b0 = _mm256_load_ps(bk);
    const __m256 b1 = _mm256_load_ps(bk + 8);
    __m256 av;
    av = _mm256_broadcast_ss(ak + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(ak + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(ak + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(ak + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(ak + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(ak + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  };
  int kk = 0;
  for (; kk + 4 <= kc; kk += 4) {
    const float* bk = bp + static_cast<std::int64_t>(kk) * kNr;
    const float* ak = ap + static_cast<std::int64_t>(kk) * kMr;
    step(bk, ak);
    step(bk + kNr, ak + kMr);
    step(bk + 2 * kNr, ak + 2 * kMr);
    step(bk + 3 * kNr, ak + 3 * kMr);
  }
  for (; kk < kc; ++kk)
    step(bp + static_cast<std::int64_t>(kk) * kNr, ap + static_cast<std::int64_t>(kk) * kMr);
  __m256 acc[kMr][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}, {c40, c41}, {c50, c51}};
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + static_cast<std::int64_t>(r) * ldc;
    if (add) {
      acc[r][0] = _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]);
      acc[r][1] = _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]);
    }
    _mm256_storeu_ps(crow, acc[r][0]);
    _mm256_storeu_ps(crow + 8, acc[r][1]);
  }
}
#endif  // NETCUT_SIMD_X86

void micro_fp32_portable(const float* ap, const float* bp, int kc, float* c, int ldc,
                         bool add) {
  float acc[kMr][kNr] = {};
  for (int kk = 0; kk < kc; ++kk) {
    const float* brow = bp + static_cast<std::int64_t>(kk) * kNr;
    const float* ar = ap + static_cast<std::int64_t>(kk) * kMr;
    for (int r = 0; r < kMr; ++r) {
      const float av = ar[r];
#pragma omp simd
      for (int jj = 0; jj < kNr; ++jj) acc[r][jj] += av * brow[jj];
    }
  }
  for (int r = 0; r < kMr; ++r) {
    float* crow = c + static_cast<std::int64_t>(r) * ldc;
    if (add) {
      for (int jj = 0; jj < kNr; ++jj) crow[jj] += acc[r][jj];
    } else {
      for (int jj = 0; jj < kNr; ++jj) crow[jj] = acc[r][jj];
    }
  }
}

void micro_fp32(const float* ap, const float* bp, int kc, float* c, int ldc, bool add) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    micro_fp32_avx2(ap, bp, kc, c, ldc, add);
    return;
  }
#endif
  micro_fp32_portable(ap, bp, kc, c, ldc, add);
}

/// Row panel [i0, i1) of the packed-B product. i0 is a kMr multiple; the
/// only short tile is the final one, so tile assignment is identical at any
/// thread count.
void gemm_fp32_rows(const float* a, const float* bpack, float* c, int i0, int i1, int k,
                    int n, bool accumulate) {
  static thread_local std::vector<float> apack_store;
  float* apack = aligned_slot(apack_store, static_cast<std::size_t>(k) * kMr);
  const int panels = (n + kNr - 1) / kNr;
  float buf[kMr * kNr];
  for (int i = i0; i < i1; i += kMr) {
    const int mr = (i + kMr <= i1) ? kMr : i1 - i;
    pack_a_fp32(a, k, i, mr, apack);
    for (int p = 0; p < panels; ++p) {
      const int j0 = p * kNr;
      const int jw = (j0 + kNr <= n) ? kNr : n - j0;
      const float* bpanel = bpack + static_cast<std::int64_t>(p) * k * kNr;
      float* ctile = c + static_cast<std::int64_t>(i) * n + j0;
      if (mr == kMr && jw == kNr) {
        micro_fp32(apack, bpanel, k, ctile, n, accumulate);
        continue;
      }
      micro_fp32(apack, bpanel, k, buf, kNr, /*add=*/false);
      for (int r = 0; r < mr; ++r) {
        float* crow = ctile + static_cast<std::int64_t>(r) * n;
        const float* brow = buf + static_cast<std::int64_t>(r) * kNr;
        if (accumulate) {
          for (int jj = 0; jj < jw; ++jj) crow[jj] += brow[jj];
        } else {
          for (int jj = 0; jj < jw; ++jj) crow[jj] = brow[jj];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fp32 narrow-N path: C[m x n] for n <= kNarrowN
// ---------------------------------------------------------------------------

#if NETCUT_SIMD_X86
/// Rows [i0, i0+mr) x cols [k0, k0+kc) of A[MxK] -> k-major tile, zero-padded
/// to kMrNarrow rows: dst[kk * kMrNarrow + r] = a[i0 + r][k0 + kk]. Full
/// tiles move 8x8 blocks through an in-register transpose.
NETCUT_TARGET_AVX2 void pack_a_narrow_avx2(const float* a, int k, int i0, int mr, int k0,
                                           int kc, float* dst) {
  int kk = 0;
  if (mr == kMrNarrow) {
    for (; kk + 8 <= kc; kk += 8) {
      for (int g = 0; g < kMrNarrow; g += 8) {
        const float* src = a + static_cast<std::int64_t>(i0 + g) * k + k0 + kk;
        __m256 r[8];
        for (int q = 0; q < 8; ++q) r[q] = _mm256_loadu_ps(src + static_cast<std::int64_t>(q) * k);
        __m256 t[8];
        for (int q = 0; q < 8; q += 2) {
          t[q] = _mm256_unpacklo_ps(r[q], r[q + 1]);
          t[q + 1] = _mm256_unpackhi_ps(r[q], r[q + 1]);
        }
        for (int q = 0; q < 8; q += 4) {
          r[q] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(1, 0, 1, 0));
          r[q + 1] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(3, 2, 3, 2));
          r[q + 2] = _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(1, 0, 1, 0));
          r[q + 3] = _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(3, 2, 3, 2));
        }
        // r[q] (q < 4) holds k-steps q | q+4 of rows 0-3 and r[q+4] the same
        // k-steps of rows 4-7; recombining 128-bit halves gives whole k-steps.
        float* out = dst + static_cast<std::int64_t>(kk) * kMrNarrow + g;
        for (int q = 0; q < 4; ++q) {
          _mm256_store_ps(out + q * kMrNarrow, _mm256_permute2f128_ps(r[q], r[q + 4], 0x20));
          _mm256_store_ps(out + (q + 4) * kMrNarrow,
                          _mm256_permute2f128_ps(r[q], r[q + 4], 0x31));
        }
      }
    }
  }
  for (; kk < kc; ++kk) {
    float* out = dst + static_cast<std::int64_t>(kk) * kMrNarrow;
    for (int r = 0; r < mr; ++r) out[r] = a[static_cast<std::int64_t>(i0 + r) * k + k0 + kk];
    for (int r = mr; r < kMrNarrow; ++r) out[r] = 0.0f;
  }
}

/// acc[j * kMrNarrow + r] += sum over kc steps of ap[kk][r] * b[kk][j], as
/// one FMA per step in k order — the operation micro_fp32_avx2 performs for
/// the same output, so the two paths agree bit for bit.
template <int N>
NETCUT_TARGET_AVX2 void micro_narrow_avx2(const float* ap, const float* b, int kc, float* acc) {
  __m256 lo[N], hi[N];
  for (int j = 0; j < N; ++j) {
    lo[j] = _mm256_load_ps(acc + j * kMrNarrow);
    hi[j] = _mm256_load_ps(acc + j * kMrNarrow + 8);
  }
  for (int kk = 0; kk < kc; ++kk) {
    const __m256 a0 = _mm256_load_ps(ap + static_cast<std::int64_t>(kk) * kMrNarrow);
    const __m256 a1 = _mm256_load_ps(ap + static_cast<std::int64_t>(kk) * kMrNarrow + 8);
    const float* bk = b + static_cast<std::int64_t>(kk) * N;
    for (int j = 0; j < N; ++j) {
      const __m256 bv = _mm256_broadcast_ss(bk + j);
      lo[j] = _mm256_fmadd_ps(a0, bv, lo[j]);
      hi[j] = _mm256_fmadd_ps(a1, bv, hi[j]);
    }
  }
  for (int j = 0; j < N; ++j) {
    _mm256_store_ps(acc + j * kMrNarrow, lo[j]);
    _mm256_store_ps(acc + j * kMrNarrow + 8, hi[j]);
  }
}

/// Rows [i0, i1) of C = A * B with n == N. Tiles start at i0 (a kMrNarrow
/// multiple), so tile assignment is identical at any thread count.
template <int N>
void gemm_narrow_rows(const float* a, const float* b, float* c, int i0, int i1, int k,
                      bool accumulate) {
  static thread_local std::vector<float> apack_store;
  float* apack = aligned_slot(apack_store, static_cast<std::size_t>(kKcNarrow) * kMrNarrow);
  alignas(32) float acc[N * kMrNarrow];
  for (int i = i0; i < i1; i += kMrNarrow) {
    const int mr = (i + kMrNarrow <= i1) ? kMrNarrow : i1 - i;
    std::memset(acc, 0, sizeof(acc));
    for (int k0 = 0; k0 < k; k0 += kKcNarrow) {
      const int kc = (k0 + kKcNarrow <= k) ? kKcNarrow : k - k0;
      pack_a_narrow_avx2(a, k, i, mr, k0, kc, apack);
      micro_narrow_avx2<N>(apack, b + static_cast<std::int64_t>(k0) * N, kc, acc);
    }
    for (int r = 0; r < mr; ++r) {
      float* crow = c + static_cast<std::int64_t>(i + r) * N;
      for (int j = 0; j < N; ++j) {
        const float v = acc[j * kMrNarrow + r];
        crow[j] = accumulate ? crow[j] + v : v;
      }
    }
  }
}

template <int N>
void gemm_narrow(const float* a, const float* b, float* c, int m, int k, bool accumulate) {
  const std::int64_t tiles = (m + kMrNarrow - 1) / kMrNarrow;
  const std::int64_t tile_flops = 2LL * kMrNarrow * k * N;
  const std::int64_t grain = (kParallelFlopCutoff + tile_flops - 1) / tile_flops;
  util::parallel_for(0, tiles, grain, [&](std::int64_t t0, std::int64_t t1) {
    const int i0 = static_cast<int>(t0) * kMrNarrow;
    const int i1 = static_cast<int>(t1 * kMrNarrow < m ? t1 * kMrNarrow : m);
    gemm_narrow_rows<N>(a, b, c, i0, i1, k, accumulate);
  });
}

void gemm_narrow_dispatch(const float* a, const float* b, float* c, int m, int k, int n,
                          bool accumulate) {
  switch (n) {
    case 1: return gemm_narrow<1>(a, b, c, m, k, accumulate);
    case 2: return gemm_narrow<2>(a, b, c, m, k, accumulate);
    case 3: return gemm_narrow<3>(a, b, c, m, k, accumulate);
    case 4: return gemm_narrow<4>(a, b, c, m, k, accumulate);
    case 5: return gemm_narrow<5>(a, b, c, m, k, accumulate);
    default: return gemm_narrow<6>(a, b, c, m, k, accumulate);
  }
}
#endif  // NETCUT_SIMD_X86

void gemm_simd(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate contraction: the product is all zeros.
    if (!accumulate)
      std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    return;
  }
#if NETCUT_SIMD_X86
  if (kUseAvx2 && n <= kNarrowN) {
    gemm_narrow_dispatch(a, b, c, m, k, n, accumulate);
    return;
  }
#endif
  // Pack B once on the calling thread (deterministic), shared read-only by
  // every row-panel worker.
  static thread_local std::vector<float> bpack_store;
  const int bpanels = (n + kNr - 1) / kNr;
  float* bpack = aligned_slot(
      bpack_store, static_cast<std::size_t>(bpanels) * static_cast<std::size_t>(k) * kNr);
  pack_b_fp32(b, k, n, bpack);

  const std::int64_t flops = 2LL * m * k * n;
  if (flops < kParallelFlopCutoff) {
    gemm_fp32_rows(a, bpack, c, 0, m, k, n, accumulate);
    return;
  }
  const std::int64_t panels = (m + kMr - 1) / kMr;
  const std::int64_t panel_flops = 2LL * kMr * k * n;
  const std::int64_t grain =
      panel_flops > 0 ? (kParallelFlopCutoff + panel_flops - 1) / panel_flops : 1;
  const float* bp = bpack;
  util::parallel_for(0, panels, grain, [&](std::int64_t p0, std::int64_t p1) {
    const int i0 = static_cast<int>(p0) * kMr;
    int i1 = static_cast<int>(p1) * kMr;
    if (i1 > m) i1 = m;
    gemm_fp32_rows(a, bp, c, i0, i1, k, n, accumulate);
  });
}

// ---------------------------------------------------------------------------
// fp32 GEMV
// ---------------------------------------------------------------------------

#if NETCUT_SIMD_X86
NETCUT_TARGET_AVX2 void gemv_avx2(const float* a, const float* x, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::int64_t>(i) * n;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j), _mm256_loadu_ps(x + j), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j + 8), _mm256_loadu_ps(x + j + 8), acc1);
    }
    acc0 = _mm256_add_ps(acc0, acc1);
    __m128 lo = _mm256_castps256_ps128(acc0);
    lo = _mm_add_ps(lo, _mm256_extractf128_ps(acc0, 1));
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    float s = _mm_cvtss_f32(lo);
    for (; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

NETCUT_TARGET_AVX2 void gemv_t_avx2(const float* a, const float* x, float* y, int m, int n) {
  std::memset(y, 0, sizeof(float) * static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    const float xi = x[i];
    if (xi == 0.0f) continue;  // dense backward feeds ReLU-sparse gradients
    const float* arow = a + static_cast<std::int64_t>(i) * n;
    const __m256 xv = _mm256_set1_ps(xi);
    int j = 0;
    for (; j + 8 <= n; j += 8)
      _mm256_storeu_ps(y + j, _mm256_fmadd_ps(xv, _mm256_loadu_ps(arow + j),
                                              _mm256_loadu_ps(y + j)));
    for (; j < n; ++j) y[j] += xi * arow[j];
  }
}
#endif  // NETCUT_SIMD_X86

void gemv_portable(const float* a, const float* x, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::int64_t>(i) * n;
    float s = 0.0f;
#pragma omp simd reduction(+ : s)
    for (int j = 0; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

void gemv_t_portable(const float* a, const float* x, float* y, int m, int n) {
  std::memset(y, 0, sizeof(float) * static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    const float xi = x[i];
    if (xi == 0.0f) continue;
    const float* arow = a + static_cast<std::int64_t>(i) * n;
#pragma omp simd
    for (int j = 0; j < n; ++j) y[j] += xi * arow[j];
  }
}

void gemv_simd(const float* a, const float* x, float* y, int m, int n) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    gemv_avx2(a, x, y, m, n);
    return;
  }
#endif
  gemv_portable(a, x, y, m, n);
}

void gemv_t_simd(const float* a, const float* x, float* y, int m, int n) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    gemv_t_avx2(a, x, y, m, n);
    return;
  }
#endif
  gemv_t_portable(a, x, y, m, n);
}

// ---------------------------------------------------------------------------
// int8: C[i32, MxN] = A[s8, MxK] * B[u8, KxN], raw products
// ---------------------------------------------------------------------------

/// B -> panels of kNrI8 columns with K-pair interleaving, zero-padded both
/// ways: dst[p * kpairs * 32 + kp * 32 + jj * 2 + parity] = b[2*kp+parity][j0+jj].
/// Adjacent i16 lanes after cvtepu8_epi16 then hold (b[k][j], b[k+1][j]) —
/// exactly the operand layout one madd_epi16 contracts.
void pack_b_s8u8(const std::uint8_t* b, int k, int n, std::uint8_t* dst) {
  const int panels = (n + kNrI8 - 1) / kNrI8;
  const int kpairs = (k + 1) / 2;
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kNrI8;
    const int jw = (j0 + kNrI8 <= n) ? kNrI8 : n - j0;
    std::uint8_t* panel = dst + static_cast<std::int64_t>(p) * kpairs * 2 * kNrI8;
    for (int kp = 0; kp < kpairs; ++kp) {
      std::uint8_t* out = panel + static_cast<std::int64_t>(kp) * 2 * kNrI8;
      const std::uint8_t* b0 = b + static_cast<std::int64_t>(2 * kp) * n + j0;
      const bool has_hi = 2 * kp + 1 < k;
      const std::uint8_t* b1 = has_hi ? b0 + n : nullptr;
      for (int jj = 0; jj < jw; ++jj) {
        out[jj * 2 + 0] = b0[jj];
        out[jj * 2 + 1] = has_hi ? b1[jj] : 0;
      }
      for (int jj = jw; jj < kNrI8; ++jj) {
        out[jj * 2 + 0] = 0;
        out[jj * 2 + 1] = 0;
      }
    }
  }
}

/// Weight rows [i0, i0+mi) -> per-k-pair i32 words: low i16 = a[r][2kp],
/// high i16 = a[r][2kp+1] (0 past the K tail), zero rows past mi.
void pack_a_s8u8(const std::int8_t* a, int k, int i0, int mi, std::int32_t* dst) {
  const int kpairs = (k + 1) / 2;
  for (int kp = 0; kp < kpairs; ++kp) {
    std::int32_t* out = dst + static_cast<std::int64_t>(kp) * kMrI8;
    for (int r = 0; r < kMrI8; ++r) {
      std::int32_t lo = 0, hi = 0;
      if (r < mi) {
        const std::int8_t* arow = a + static_cast<std::int64_t>(i0 + r) * k;
        lo = arow[2 * kp];
        hi = (2 * kp + 1 < k) ? arow[2 * kp + 1] : 0;
      }
      out[r] = static_cast<std::int32_t>((static_cast<std::uint32_t>(lo) & 0xFFFFu) |
                                         (static_cast<std::uint32_t>(hi) << 16));
    }
  }
}

#if NETCUT_SIMD_X86
NETCUT_TARGET_AVX2 void micro_s8u8_avx2(const std::int32_t* ap, const std::uint8_t* bp,
                                        int kpairs, std::int32_t* c, int ldc) {
  __m256i acc[kMrI8][2];
  for (int r = 0; r < kMrI8; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (int kp = 0; kp < kpairs; ++kp) {
    const std::uint8_t* brow = bp + static_cast<std::int64_t>(kp) * 2 * kNrI8;
    // 16 interleaved bytes -> 16 i16 lanes: pairs (b[k][j], b[k+1][j]).
    const __m256i b0 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow)));
    const __m256i b1 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + kNrI8)));
    const std::int32_t* arow = ap + static_cast<std::int64_t>(kp) * kMrI8;
    for (int r = 0; r < kMrI8; ++r) {
      const __m256i wv = _mm256_set1_epi32(arow[r]);
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(b0, wv));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(b1, wv));
    }
  }
  for (int r = 0; r < kMrI8; ++r) {
    std::int32_t* crow = c + static_cast<std::int64_t>(r) * ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), acc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), acc[r][1]);
  }
}
#endif  // NETCUT_SIMD_X86

void micro_s8u8_portable(const std::int32_t* ap, const std::uint8_t* bp, int kpairs,
                         std::int32_t* c, int ldc) {
  std::int32_t acc[kMrI8][kNrI8] = {};
  for (int kp = 0; kp < kpairs; ++kp) {
    const std::uint8_t* brow = bp + static_cast<std::int64_t>(kp) * 2 * kNrI8;
    const std::int32_t* arow = ap + static_cast<std::int64_t>(kp) * kMrI8;
    for (int r = 0; r < kMrI8; ++r) {
      const std::int32_t lo = static_cast<std::int16_t>(arow[r] & 0xFFFF);
      const std::int32_t hi = static_cast<std::int16_t>(
          static_cast<std::uint32_t>(arow[r]) >> 16);
#pragma omp simd
      for (int jj = 0; jj < kNrI8; ++jj)
        acc[r][jj] += lo * brow[jj * 2] + hi * brow[jj * 2 + 1];
    }
  }
  for (int r = 0; r < kMrI8; ++r) {
    std::int32_t* crow = c + static_cast<std::int64_t>(r) * ldc;
    for (int jj = 0; jj < kNrI8; ++jj) crow[jj] = acc[r][jj];
  }
}

void micro_s8u8(const std::int32_t* ap, const std::uint8_t* bp, int kpairs, std::int32_t* c,
                int ldc) {
#if NETCUT_SIMD_X86
  if (kUseAvx2) {
    micro_s8u8_avx2(ap, bp, kpairs, c, ldc);
    return;
  }
#endif
  micro_s8u8_portable(ap, bp, kpairs, c, ldc);
}

void gemm_s8u8_rows(const std::int8_t* a, const std::uint8_t* bpack, std::int32_t* c, int i0,
                    int i1, int k, int n) {
  static thread_local std::vector<std::int32_t> apack_store;
  const int kpairs = (k + 1) / 2;
  std::int32_t* apack =
      aligned_slot(apack_store, static_cast<std::size_t>(kpairs) * kMrI8);
  const int panels = (n + kNrI8 - 1) / kNrI8;
  std::int32_t buf[kMrI8 * kNrI8];
  for (int i = i0; i < i1; i += kMrI8) {
    const int mi = (i + kMrI8 <= i1) ? kMrI8 : i1 - i;
    pack_a_s8u8(a, k, i, mi, apack);
    for (int p = 0; p < panels; ++p) {
      const int j0 = p * kNrI8;
      const int jw = (j0 + kNrI8 <= n) ? kNrI8 : n - j0;
      const std::uint8_t* bpanel =
          bpack + static_cast<std::int64_t>(p) * kpairs * 2 * kNrI8;
      std::int32_t* ctile = c + static_cast<std::int64_t>(i) * n + j0;
      if (mi == kMrI8 && jw == kNrI8) {
        micro_s8u8(apack, bpanel, kpairs, ctile, n);
        continue;
      }
      micro_s8u8(apack, bpanel, kpairs, buf, kNrI8);
      for (int r = 0; r < mi; ++r) {
        std::int32_t* crow = ctile + static_cast<std::int64_t>(r) * n;
        const std::int32_t* brow = buf + static_cast<std::int64_t>(r) * kNrI8;
        for (int jj = 0; jj < jw; ++jj) crow[jj] = brow[jj];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// int8 narrow-N path: C[m x n] for n <= kNarrowNI8
// ---------------------------------------------------------------------------

#if NETCUT_SIMD_X86
/// Rows [i0, i1) of C for n == N: one K-vectorised dot per output straight
/// off the unpacked weight row. bt holds column j of B widened to i16 at
/// bt[j * ldbt + kk]. Weights widen with cvtepi8_epi16 and madd_epi16 sums
/// two exact i16 products (|s8 x u8| <= 128 * 255) into an i32 lane — never
/// maddubs, whose i16 pair sum saturates.
template <int N>
NETCUT_TARGET_AVX2 void narrow_s8u8_rows_avx2(const std::int8_t* a, const std::int16_t* bt,
                                              int ldbt, std::int32_t* c, int i0, int i1,
                                              int k) {
  for (int i = i0; i < i1; ++i) {
    const std::int8_t* arow = a + static_cast<std::int64_t>(i) * k;
    __m256i acc[N];
    for (int j = 0; j < N; ++j) acc[j] = _mm256_setzero_si256();
    int kk = 0;
    for (; kk + 16 <= k; kk += 16) {
      const __m256i av =
          _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + kk)));
      for (int j = 0; j < N; ++j) {
        const __m256i bv = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(bt + static_cast<std::int64_t>(j) * ldbt + kk));
        acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(av, bv));
      }
    }
    for (int j = 0; j < N; ++j) {
      __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc[j]),
                                _mm256_extracti128_si256(acc[j], 1));
      s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
      s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
      std::int32_t sum = _mm_cvtsi128_si32(s);
      const std::int16_t* bj = bt + static_cast<std::int64_t>(j) * ldbt;
      for (int t = kk; t < k; ++t) sum += static_cast<std::int32_t>(arow[t]) * bj[t];
      c[static_cast<std::int64_t>(i) * N + j] = sum;
    }
  }
}

template <int N>
void gemm_s8u8_narrow(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c, int m,
                      int k) {
  // Widen B's columns once on the calling thread; every row worker reads
  // them. Rows are padded to 16 lanes so each one starts 32-byte aligned.
  static thread_local std::vector<std::int16_t> bt_store;
  const int ldbt = (k + 15) / 16 * 16;
  std::int16_t* bt = aligned_slot(bt_store, static_cast<std::size_t>(N) * ldbt);
  for (int j = 0; j < N; ++j)
    for (int kk = 0; kk < k; ++kk)
      bt[static_cast<std::int64_t>(j) * ldbt + kk] = b[static_cast<std::int64_t>(kk) * N + j];
  const std::int64_t row_macs = 1LL * k * N;
  const std::int64_t grain = (kParallelFlopCutoff + row_macs - 1) / row_macs;
  const std::int16_t* btc = bt;
  util::parallel_for(0, m, grain, [&](std::int64_t i0, std::int64_t i1) {
    narrow_s8u8_rows_avx2<N>(a, btc, ldbt, c, static_cast<int>(i0), static_cast<int>(i1), k);
  });
}

void gemm_s8u8_narrow_dispatch(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c,
                               int m, int k, int n) {
  switch (n) {
    case 1: return gemm_s8u8_narrow<1>(a, b, c, m, k);
    case 2: return gemm_s8u8_narrow<2>(a, b, c, m, k);
    case 3: return gemm_s8u8_narrow<3>(a, b, c, m, k);
    default: return gemm_s8u8_narrow<4>(a, b, c, m, k);
  }
}
#endif  // NETCUT_SIMD_X86

void gemm_s8u8_simd(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c, int m,
                    int k, int n) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::memset(c, 0,
                sizeof(std::int32_t) * static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    return;
  }
#if NETCUT_SIMD_X86
  if (kUseAvx2 && n <= kNarrowNI8) {
    gemm_s8u8_narrow_dispatch(a, b, c, m, k, n);
    return;
  }
#endif
  static thread_local std::vector<std::uint8_t> bpack_store;
  const int panels = (n + kNrI8 - 1) / kNrI8;
  const int kpairs = (k + 1) / 2;
  std::uint8_t* bpack = aligned_slot(
      bpack_store,
      static_cast<std::size_t>(panels) * static_cast<std::size_t>(kpairs) * 2 * kNrI8);
  pack_b_s8u8(b, k, n, bpack);

  const std::int64_t macs = 1LL * m * k * n;
  if (macs < kParallelFlopCutoff) {
    gemm_s8u8_rows(a, bpack, c, 0, m, k, n);
    return;
  }
  const std::int64_t tiles = (m + kMrI8 - 1) / kMrI8;
  const std::int64_t tile_macs = 1LL * kMrI8 * k * n;
  const std::int64_t grain =
      tile_macs > 0 ? (kParallelFlopCutoff + tile_macs - 1) / tile_macs : 1;
  const std::uint8_t* bp = bpack;
  util::parallel_for(0, tiles, grain, [&](std::int64_t t0, std::int64_t t1) {
    const int i0 = static_cast<int>(t0) * kMrI8;
    int i1 = static_cast<int>(t1) * kMrI8;
    if (i1 > m) i1 = m;
    gemm_s8u8_rows(a, bp, c, i0, i1, k, n);
  });
}

}  // namespace

const char* simd_isa() { return kUseAvx2 ? "avx2" : "portable"; }

const KernelBackend& simd_backend() {
  static const KernelBackend backend{"simd", gemm_simd, gemv_simd, gemv_t_simd,
                                     gemm_s8u8_simd};
  return backend;
}

}  // namespace netcut::tensor
