// Scalar-vs-simd kernel backend agreement. The scalar backend is the
// correctness oracle: fp32 kernels must agree to ULP-level tolerance (FMA
// and lane reductions legally change bits), the int8 kernel must agree
// bit-for-bit (integer sums are associative, so any difference is a bug).
// Shapes deliberately cover register-tile edges: M not a multiple of the
// row tile, N not a multiple of the panel width, K not a multiple of the
// vector width, and degenerate single-row/column cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/backend.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netcut::tensor {
namespace {

struct ShapeCase {
  int m, k, n;
};

const std::vector<ShapeCase>& edge_shapes() {
  static const std::vector<ShapeCase> shapes = {
      {1, 1, 1},   {1, 7, 1},   {3, 5, 7},    {6, 16, 16},  {7, 17, 19},
      {4, 1, 16},  {5, 2, 33},  {13, 33, 31}, {23, 63, 40}, {64, 64, 64},
      {6, 128, 1}, {2, 255, 9},
  };
  return shapes;
}

/// Restores the entry backend on scope exit so agreement tests cannot leak
/// a forced backend into the rest of the binary.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend_kind()) {}
  ~BackendGuard() { set_backend(saved_); }

 private:
  BackendKind saved_;
};

/// |a - b| within `ulps` units of the wider value's last place, with a small
/// absolute floor for results near zero.
void expect_ulp_close(const float* a, const float* b, std::size_t count, float ulps) {
  for (std::size_t i = 0; i < count; ++i) {
    const float mag = std::max(std::fabs(a[i]), std::fabs(b[i]));
    const float tol = ulps * (mag * 1.19209290e-07f) + 1e-6f;
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

TEST(Backends, ParseAndNames) {
  EXPECT_EQ(parse_backend("scalar"), BackendKind::kScalar);
  EXPECT_EQ(parse_backend("simd"), BackendKind::kSimd);
  EXPECT_THROW(parse_backend("avx9000"), std::invalid_argument);
  EXPECT_THROW(parse_backend(""), std::invalid_argument);
  EXPECT_STREQ(backend_name(BackendKind::kScalar), "scalar");
  EXPECT_STREQ(backend_name(BackendKind::kSimd), "simd");
  EXPECT_STREQ(scalar_backend().name, "scalar");
  EXPECT_STREQ(simd_backend().name, "simd");
  const std::string isa = simd_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "portable") << isa;
}

TEST(Backends, SetBackendSwitchesDispatch) {
  BackendGuard guard;
  set_backend(BackendKind::kScalar);
  EXPECT_EQ(active_backend_kind(), BackendKind::kScalar);
  EXPECT_STREQ(active_backend().name, "scalar");
  set_backend(BackendKind::kSimd);
  EXPECT_EQ(active_backend_kind(), BackendKind::kSimd);
  EXPECT_STREQ(active_backend().name, "simd");
}

TEST(Backends, Fp32GemmAgreesToUlp) {
  util::Rng rng(101);
  for (const ShapeCase& s : edge_shapes()) {
    const auto a = Tensor::randn(Shape{s.m, s.k}, rng);
    const auto b = Tensor::randn(Shape{s.k, s.n}, rng);
    std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n);
    std::vector<float> got(ref.size());
    scalar_backend().gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n, false);
    simd_backend().gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n, false);
    // K accumulation steps compound rounding differently under FMA; allow a
    // per-step ULP budget.
    expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(s.k));
  }
}

TEST(Backends, Fp32GemmAccumulateAgreesToUlp) {
  util::Rng rng(102);
  for (const ShapeCase& s : edge_shapes()) {
    const auto a = Tensor::randn(Shape{s.m, s.k}, rng);
    const auto b = Tensor::randn(Shape{s.k, s.n}, rng);
    const auto c0 = Tensor::randn(Shape{s.m, s.n}, rng);
    std::vector<float> ref(c0.data(), c0.data() + c0.numel());
    std::vector<float> got = ref;
    scalar_backend().gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n, true);
    simd_backend().gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n, true);
    expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(s.k));
  }
}

TEST(Backends, TransposedEntryPointsFollowActiveBackend) {
  BackendGuard guard;
  util::Rng rng(103);
  const int m = 9, k = 21, n = 13;
  const auto at = Tensor::randn(Shape{k, m}, rng);
  const auto b = Tensor::randn(Shape{k, n}, rng);
  const auto a = Tensor::randn(Shape{m, k}, rng);
  const auto bt = Tensor::randn(Shape{n, k}, rng);

  std::vector<float> ref(static_cast<std::size_t>(m) * n), got(ref.size());
  set_backend(BackendKind::kScalar);
  gemm_at(at.data(), b.data(), ref.data(), m, k, n);
  set_backend(BackendKind::kSimd);
  gemm_at(at.data(), b.data(), got.data(), m, k, n);
  expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(k));

  set_backend(BackendKind::kScalar);
  gemm_bt(a.data(), bt.data(), ref.data(), m, k, n);
  set_backend(BackendKind::kSimd);
  gemm_bt(a.data(), bt.data(), got.data(), m, k, n);
  expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(k));
}

TEST(Backends, GemvAgreesToUlp) {
  util::Rng rng(104);
  for (const ShapeCase& s : edge_shapes()) {
    const auto a = Tensor::randn(Shape{s.m, s.n}, rng);
    const auto x = Tensor::randn(Shape::vec(s.n), rng);
    const auto xt = Tensor::randn(Shape::vec(s.m), rng);
    std::vector<float> ref(static_cast<std::size_t>(s.m)), got(ref.size());
    scalar_backend().gemv(a.data(), x.data(), ref.data(), s.m, s.n);
    simd_backend().gemv(a.data(), x.data(), got.data(), s.m, s.n);
    expect_ulp_close(ref.data(), got.data(), ref.size(), 4.0f * static_cast<float>(s.n));

    std::vector<float> reft(static_cast<std::size_t>(s.n)), gott(reft.size());
    scalar_backend().gemv_t(a.data(), xt.data(), reft.data(), s.m, s.n);
    simd_backend().gemv_t(a.data(), xt.data(), gott.data(), s.m, s.n);
    expect_ulp_close(reft.data(), gott.data(), reft.size(), 4.0f * static_cast<float>(s.m));
  }
}

/// Restores the default pool size on scope exit.
class PoolGuard {
 public:
  ~PoolGuard() { util::set_num_threads(util::default_thread_count()); }
};

TEST(Backends, Fp32GemmColumnSliceBitwiseInvariant) {
  // Each output column of the simd gemm is one k-ascending FMA chain whose
  // order does not depend on n: the narrow-N path (n <= 6) and the 16-wide
  // panel tile must agree byte for byte on the columns they share, at any
  // pool size.
  BackendGuard backend_guard;
  PoolGuard pool_guard;
  set_backend(BackendKind::kSimd);
  constexpr int kWide = 20;
  util::Rng rng(107);
  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    for (const int m : {1, 15, 16, 17, 100}) {
      for (const int k : {1, 7, 9, 288, 4608}) {
        const auto a = Tensor::randn(Shape{m, k}, rng);
        const auto at = Tensor::randn(Shape{k, m}, rng);
        const auto bw = Tensor::randn(Shape{k, kWide}, rng);
        const auto cw0 = Tensor::randn(Shape{m, kWide}, rng);
        for (int n = 1; n <= 6; ++n) {
          std::vector<float> bn(static_cast<std::size_t>(k) * n);
          for (int kk = 0; kk < k; ++kk)
            std::memcpy(&bn[static_cast<std::size_t>(kk) * n], bw.data() + kk * kWide,
                        sizeof(float) * n);
          for (const int op : {0, 1, 2}) {  // gemm, gemm_accumulate, gemm_at
            std::vector<float> wide(cw0.data(), cw0.data() + cw0.numel());
            std::vector<float> narrow(static_cast<std::size_t>(m) * n);
            for (int i = 0; i < m; ++i)
              std::memcpy(&narrow[static_cast<std::size_t>(i) * n], &wide[i * kWide],
                          sizeof(float) * n);
            if (op == 0) {
              gemm(a.data(), bw.data(), wide.data(), m, k, kWide);
              gemm(a.data(), bn.data(), narrow.data(), m, k, n);
            } else if (op == 1) {
              gemm_accumulate(a.data(), bw.data(), wide.data(), m, k, kWide);
              gemm_accumulate(a.data(), bn.data(), narrow.data(), m, k, n);
            } else {
              gemm_at(at.data(), bw.data(), wide.data(), m, k, kWide);
              gemm_at(at.data(), bn.data(), narrow.data(), m, k, n);
            }
            for (int i = 0; i < m; ++i)
              ASSERT_EQ(std::memcmp(&narrow[static_cast<std::size_t>(i) * n], &wide[i * kWide],
                                    sizeof(float) * n),
                        0)
                  << "row " << i << " op " << op << " shape " << m << "x" << k << "x" << n
                  << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(Backends, Int8GemmBitExactAcrossBackendsAndMatchesNaive) {
  util::Rng rng(105);
  // K values straddle the madd pair width and the panel interleave; N and M
  // straddle the int8 tile. The narrow-N rows pair every N the K-vectorised
  // path takes with odd K tails around its 16-lane step.
  std::vector<ShapeCase> shapes = edge_shapes();
  for (int n = 1; n <= 4; ++n)
    for (const int k : {1, 17, 31, 4607}) shapes.push_back({13, k, n});
  for (const ShapeCase& s : shapes) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<std::uint8_t> b(static_cast<std::size_t>(s.k) * s.n);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

    std::vector<std::int32_t> ref(static_cast<std::size_t>(s.m) * s.n);
    std::vector<std::int32_t> got(ref.size());
    scalar_backend().gemm_s8u8(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    simd_backend().gemm_s8u8(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    ASSERT_EQ(ref, got) << "shape " << s.m << "x" << s.k << "x" << s.n;

    // Independent naive oracle on a probe subset (full naive is O(mkn)).
    for (int i = 0; i < s.m; i += std::max(1, s.m / 3)) {
      for (int j = 0; j < s.n; j += std::max(1, s.n / 3)) {
        std::int64_t acc = 0;
        for (int kk = 0; kk < s.k; ++kk)
          acc += static_cast<std::int64_t>(a[static_cast<std::size_t>(i) * s.k + kk]) *
                 static_cast<std::int64_t>(b[static_cast<std::size_t>(kk) * s.n + j]);
        ASSERT_EQ(ref[static_cast<std::size_t>(i) * s.n + j], static_cast<std::int32_t>(acc))
            << "at (" << i << "," << j << ") shape " << s.m << "x" << s.k << "x" << s.n;
      }
    }
  }

  // Extreme operands: every product is -128 * 255, the largest-magnitude
  // s8 x u8 value, which saturates any i16 pair sum.
  for (const int n : {1, 4, 16}) {
    const int m = 5, k = 4607;
    const std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k, -128);
    const std::vector<std::uint8_t> b(static_cast<std::size_t>(k) * n, 255);
    std::vector<std::int32_t> ref(static_cast<std::size_t>(m) * n), got(ref.size());
    scalar_backend().gemm_s8u8(a.data(), b.data(), ref.data(), m, k, n);
    simd_backend().gemm_s8u8(a.data(), b.data(), got.data(), m, k, n);
    const std::vector<std::int32_t> naive(ref.size(), -128 * 255 * k);
    ASSERT_EQ(ref, naive) << "n " << n;
    ASSERT_EQ(got, naive) << "n " << n;
  }
}

TEST(Backends, PublicEntryPointsDispatchThroughActiveBackend) {
  BackendGuard guard;
  util::Rng rng(106);
  const int m = 11, k = 29, n = 17;
  const auto a = Tensor::randn(Shape{m, k}, rng);
  const auto b = Tensor::randn(Shape{k, n}, rng);
  std::vector<float> via_gemm(static_cast<std::size_t>(m) * n);
  std::vector<float> via_table(via_gemm.size());
  for (const BackendKind kind : {BackendKind::kScalar, BackendKind::kSimd}) {
    set_backend(kind);
    gemm(a.data(), b.data(), via_gemm.data(), m, k, n);
    (kind == BackendKind::kScalar ? scalar_backend() : simd_backend())
        .gemm(a.data(), b.data(), via_table.data(), m, k, n, false);
    // Same table entry, same inputs: the free function adds nothing, so
    // this is bitwise.
    ASSERT_EQ(std::memcmp(via_gemm.data(), via_table.data(),
                          via_gemm.size() * sizeof(float)),
              0);
  }
}

}  // namespace
}  // namespace netcut::tensor
