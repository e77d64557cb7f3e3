// Tests for the SIMD kernel layer (src/tensor/kernels.h).
//
// The load-bearing property is the scalar-exact contract: for every kernel,
// the AVX2 backend must produce bit-identical output to the scalar backend —
// including ragged lengths (n % 8 != 0), empty inputs, and NaN/Inf inputs.
// Equality is checked on the bit patterns, not with tolerances, with one
// carve-out (see kernels.h): a NaN output matches any NaN, because NaN
// sign/payload propagation depends on operand order the compiler is free to
// commute. NaN *positions* must still agree exactly.
#include "tensor/kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace emba {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Restores automatic dispatch (and the single-thread pool) when a test ends,
// whatever it forced in between.
class KernelEnvGuard {
 public:
  ~KernelEnvGuard() {
    kernels::ResetBackend();
    SetGlobalThreads(1);
  }
};

bool Avx2Available() {
  return kernels::Avx2KernelsOrNull() != nullptr && kernels::CpuSupportsAvx2();
}

#define SKIP_WITHOUT_AVX2()                                              \
  do {                                                                   \
    if (!Avx2Available()) {                                              \
      GTEST_SKIP() << "AVX2 backend not available on this build or CPU"; \
    }                                                                    \
  } while (0)

// The ragged-shape sweep: crossings of the 8-lane boundary, sub-lane sizes,
// and a couple of large lengths.
const std::vector<int64_t> kSizes = {0,  1,  2,  3,  5,   7,   8,   9,
                                     15, 16, 17, 31, 33,  64,  100, 127,
                                     128, 129, 255, 257, 1000};

std::vector<float> RandomVec(int64_t n, Rng* rng, float lo = -4.0f,
                             float hi = 4.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng->Uniform(lo, hi));
  return v;
}

// Sprinkles NaN and ±Inf over a copy of `v` (deterministic positions that
// cover main-loop and tail elements).
std::vector<float> WithSpecials(std::vector<float> v) {
  for (size_t i = 0; i < v.size(); i += 11) v[i] = kNaN;
  for (size_t i = 5; i < v.size(); i += 13) v[i] = kInf;
  for (size_t i = 7; i < v.size(); i += 17) v[i] = -kInf;
  return v;
}

// Bit equality with the NaN carve-out: any NaN matches any NaN (payload and
// sign are unspecified, see kernels.h), everything else compares exactly.
::testing::AssertionResult BitEqualF(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  uint32_t ba, bb;
  std::memcpy(&ba, &a, 4);
  std::memcpy(&bb, &b, 4);
  if (ba != bb) {
    return ::testing::AssertionFailure()
           << a << " (0x" << std::hex << ba << ") vs " << b << " (0x" << bb
           << ")";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(const std::vector<float>& a,
                                    const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    ::testing::AssertionResult r = BitEqualF(a[i], b[i]);
    if (!r) return ::testing::AssertionFailure() << "element " << i << ": "
                                                 << r.message();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqualD(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  uint64_t ba, bb;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  if (ba != bb) {
    return ::testing::AssertionFailure() << a << " vs " << b;
  }
  return ::testing::AssertionSuccess();
}

TEST(KernelsDispatchTest, BackendNames) {
  EXPECT_STREQ(kernels::BackendName(kernels::Backend::kScalar), "scalar");
  EXPECT_STREQ(kernels::BackendName(kernels::Backend::kAvx2), "avx2");
}

TEST(KernelsDispatchTest, EnvOverrideForcesScalar) {
  KernelEnvGuard guard;
  setenv("EMBA_SIMD", "off", 1);
  kernels::ResetBackend();
  EXPECT_EQ(kernels::ActiveBackend(), kernels::Backend::kScalar);
  unsetenv("EMBA_SIMD");
  kernels::ResetBackend();
  // Auto resolution: AVX2 exactly when the build + CPU provide it.
  EXPECT_EQ(kernels::ActiveBackend() == kernels::Backend::kAvx2,
            Avx2Available());
  // EMBA_SIMD is a bool: the retired spelling "scalar" is malformed, so it
  // warns and dispatches as if unset.
  setenv("EMBA_SIMD", "scalar", 1);
  kernels::ResetBackend();
  EXPECT_EQ(kernels::ActiveBackend() == kernels::Backend::kAvx2,
            Avx2Available());
  unsetenv("EMBA_SIMD");
}

TEST(KernelsDispatchTest, ForceAndReset) {
  KernelEnvGuard guard;
  kernels::ForceBackend(kernels::Backend::kScalar);
  EXPECT_EQ(kernels::ActiveBackend(), kernels::Backend::kScalar);
  if (Avx2Available()) {
    kernels::ForceBackend(kernels::Backend::kAvx2);
    EXPECT_EQ(kernels::ActiveBackend(), kernels::Backend::kAvx2);
  }
}

TEST(KernelsDispatchTest, ScalarTableAlwaysPresent) {
  const kernels::KernelTable& t = kernels::ScalarKernels();
  EXPECT_EQ(t.backend, kernels::Backend::kScalar);
  EXPECT_NE(t.Dot, nullptr);
  EXPECT_NE(t.LayerNormForwardRow, nullptr);
}

// ---- bit-exact scalar-vs-AVX2 sweeps ----

class KernelsParityTest : public ::testing::Test {
 protected:
  void SetUp() override { SKIP_WITHOUT_AVX2(); }
  const kernels::KernelTable& S = kernels::ScalarKernels();
  const kernels::KernelTable& V = *kernels::Avx2KernelsOrNull();
  Rng rng_{0xC0FFEE};
};

TEST_F(KernelsParityTest, Reductions) {
  for (int64_t n : kSizes) {
    auto a = RandomVec(n, &rng_, -100.0f, 100.0f);
    auto b = RandomVec(n, &rng_);
    EXPECT_TRUE(BitEqualF(S.Dot(a.data(), b.data(), n),
                          V.Dot(a.data(), b.data(), n)))
        << "Dot n=" << n;
    EXPECT_TRUE(BitEqualD(S.Sum(a.data(), n), V.Sum(a.data(), n)))
        << "Sum n=" << n;
    EXPECT_TRUE(BitEqualD(S.SumSq(a.data(), n), V.SumSq(a.data(), n)))
        << "SumSq n=" << n;
    EXPECT_TRUE(BitEqualD(S.CenteredSumSq(a.data(), 1.25f, n),
                          V.CenteredSumSq(a.data(), 1.25f, n)))
        << "CenteredSumSq n=" << n;
    if (n > 0) {
      EXPECT_TRUE(BitEqualF(S.Max(a.data(), n), V.Max(a.data(), n)))
          << "Max n=" << n;
    }
  }
}

TEST_F(KernelsParityTest, ReductionsWithSpecials) {
  for (int64_t n : kSizes) {
    auto a = WithSpecials(RandomVec(n, &rng_));
    auto b = RandomVec(n, &rng_);
    EXPECT_TRUE(BitEqualF(S.Dot(a.data(), b.data(), n),
                          V.Dot(a.data(), b.data(), n)))
        << "Dot n=" << n;
    EXPECT_TRUE(BitEqualD(S.Sum(a.data(), n), V.Sum(a.data(), n)))
        << "Sum n=" << n;
    if (n > 0) {
      EXPECT_TRUE(BitEqualF(S.Max(a.data(), n), V.Max(a.data(), n)))
          << "Max n=" << n;
    }
  }
}

TEST_F(KernelsParityTest, Elementwise) {
  for (int64_t n : kSizes) {
    auto x = RandomVec(n, &rng_);
    auto y0 = RandomVec(n, &rng_);
    auto z = RandomVec(n, &rng_);

    auto ys = y0, yv = y0;
    S.Add(ys.data(), x.data(), n);
    V.Add(yv.data(), x.data(), n);
    EXPECT_TRUE(BitEqual(ys, yv)) << "Add n=" << n;

    ys = y0, yv = y0;
    S.Sub(ys.data(), x.data(), n);
    V.Sub(yv.data(), x.data(), n);
    EXPECT_TRUE(BitEqual(ys, yv)) << "Sub n=" << n;

    ys = y0, yv = y0;
    S.Mul(ys.data(), x.data(), n);
    V.Mul(yv.data(), x.data(), n);
    EXPECT_TRUE(BitEqual(ys, yv)) << "Mul n=" << n;

    ys = y0, yv = y0;
    S.Scale(ys.data(), 0.3333f, n);
    V.Scale(yv.data(), 0.3333f, n);
    EXPECT_TRUE(BitEqual(ys, yv)) << "Scale n=" << n;

    ys = y0, yv = y0;
    S.AddScalar(ys.data(), -2.5f, n);
    V.AddScalar(yv.data(), -2.5f, n);
    EXPECT_TRUE(BitEqual(ys, yv)) << "AddScalar n=" << n;

    ys = y0, yv = y0;
    S.Axpy(ys.data(), 1.7f, x.data(), n);
    V.Axpy(yv.data(), 1.7f, x.data(), n);
    EXPECT_TRUE(BitEqual(ys, yv)) << "Axpy n=" << n;

    ys = y0, yv = y0;
    S.MulAdd(ys.data(), x.data(), z.data(), n);
    V.MulAdd(yv.data(), x.data(), z.data(), n);
    EXPECT_TRUE(BitEqual(ys, yv)) << "MulAdd n=" << n;
  }
}

TEST_F(KernelsParityTest, MatMulBlockKernels) {
  // Ragged k and n around the lane and j-block boundaries, num_rows around
  // the 4-row block boundary (covering no-block, exact-block and
  // remainder-row paths); zeros sprinkled into a so the per-row sparsity
  // skip fires on both backends, specials so NaN/Inf propagation is covered.
  const int64_t kDims[][2] = {{1, 1},   {3, 5},   {8, 32},  {9, 33},
                              {17, 4},  {16, 65}, {31, 100}, {64, 129},
                              {24, 43}, {43, 24}, {5, 11}};
  const int64_t kRowCounts[] = {1, 2, 3, 4, 5, 8, 9};
  for (const auto& d : kDims) {
    const int64_t k = d[0], n = d[1];
    for (const int64_t m : kRowCounts) {
      auto a = RandomVec(m * k, &rng_);
      for (size_t i = 1; i < a.size(); i += 3) a[i] = 0.0f;  // exercise skip
      auto b = RandomVec(k * n, &rng_);
      auto arows = WithSpecials(RandomVec(m * k, &rng_));
      auto bcols = RandomVec(n * k, &rng_);

      std::vector<float> cs(static_cast<size_t>(m * n)), cv(cs);
      // MatMul form: a rows contiguous (row stride k, column stride 1).
      S.MatMulBlockAxpy(cs.data(), a.data(), k, 1, m, b.data(), k, n);
      V.MatMulBlockAxpy(cv.data(), a.data(), k, 1, m, b.data(), k, n);
      EXPECT_TRUE(BitEqual(cs, cv))
          << "MatMulBlockAxpy m=" << m << " k=" << k << " n=" << n;

      // MatMulTransposedA form: block row r reads column r of a k×m
      // row-major buffer (row stride 1, column stride m).
      S.MatMulBlockAxpy(cs.data(), a.data(), 1, m, m, b.data(), k, n);
      V.MatMulBlockAxpy(cv.data(), a.data(), 1, m, m, b.data(), k, n);
      EXPECT_TRUE(BitEqual(cs, cv))
          << "MatMulBlockAxpy strided m=" << m << " k=" << k << " n=" << n;

      S.MatMulBlockDot(cs.data(), arows.data(), m, bcols.data(), k, n);
      V.MatMulBlockDot(cv.data(), arows.data(), m, bcols.data(), k, n);
      EXPECT_TRUE(BitEqual(cs, cv))
          << "MatMulBlockDot m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST_F(KernelsParityTest, Transpose2D) {
  // Ragged shapes around the 8×8 block boundary; a transpose is a pure
  // copy, so the two backends must agree bit for bit including specials.
  const int64_t kDims[][2] = {{1, 1},  {1, 9},  {9, 1},   {8, 8},
                              {7, 13}, {43, 24}, {16, 17}, {45, 45}};
  for (const auto& d : kDims) {
    const int64_t rows = d[0], cols = d[1];
    auto x = WithSpecials(RandomVec(rows * cols, &rng_));
    std::vector<float> ts(static_cast<size_t>(rows * cols)), tv(ts);
    S.Transpose2D(ts.data(), x.data(), rows, cols);
    V.Transpose2D(tv.data(), x.data(), rows, cols);
    EXPECT_TRUE(BitEqual(ts, tv)) << "Transpose2D " << rows << "x" << cols;
    // A transpose moves bytes without touching them, so even NaN payloads
    // must survive: compare raw bits, no carve-out.
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        uint32_t got, want;
        std::memcpy(&got, &ts[static_cast<size_t>(j * rows + i)], 4);
        std::memcpy(&want, &x[static_cast<size_t>(i * cols + j)], 4);
        ASSERT_EQ(got, want)
            << "Transpose2D misplaced element at " << i << "," << j;
      }
    }
  }
}

TEST_F(KernelsParityTest, SoftmaxPasses) {
  for (int64_t n : kSizes) {
    auto x0 = RandomVec(n, &rng_, -30.0f, 30.0f);
    const float mx = n > 0 ? S.Max(x0.data(), n) : 0.0f;

    auto xs = x0, xv = x0;
    float ss = S.ExpSubSum(xs.data(), mx, n);
    float sv = V.ExpSubSum(xv.data(), mx, n);
    EXPECT_TRUE(BitEqualF(ss, sv)) << "ExpSubSum n=" << n;
    EXPECT_TRUE(BitEqual(xs, xv)) << "ExpSubSum store n=" << n;

    EXPECT_TRUE(BitEqualF(S.ExpSubSumConst(x0.data(), mx, n),
                          V.ExpSubSumConst(x0.data(), mx, n)))
        << "ExpSubSumConst n=" << n;
  }
}

TEST_F(KernelsParityTest, Activations) {
  for (int64_t n : kSizes) {
    // Cover both tanh branches, the exp saturation range, and specials.
    auto x0 = WithSpecials(RandomVec(n, &rng_, -12.0f, 12.0f));
    for (size_t i = 3; i < x0.size(); i += 19) x0[i] *= 0.01f;

    for (auto op : {&kernels::KernelTable::Gelu, &kernels::KernelTable::Relu,
                    &kernels::KernelTable::Tanh,
                    &kernels::KernelTable::Sigmoid}) {
      auto xs = x0, xv = x0;
      (S.*op)(xs.data(), n);
      (V.*op)(xv.data(), n);
      EXPECT_TRUE(BitEqual(xs, xv)) << "activation n=" << n;
    }
  }
}

TEST_F(KernelsParityTest, BackwardKernels) {
  for (int64_t n : kSizes) {
    auto x = RandomVec(n, &rng_, -6.0f, 6.0f);
    auto g = RandomVec(n, &rng_);
    auto y = RandomVec(n, &rng_, 0.0f, 1.0f);

    std::vector<float> dxs(static_cast<size_t>(n)), dxv(dxs);
    S.GeluBackward(dxs.data(), x.data(), g.data(), n);
    V.GeluBackward(dxv.data(), x.data(), g.data(), n);
    EXPECT_TRUE(BitEqual(dxs, dxv)) << "GeluBackward n=" << n;

    auto ts = g, tv = g;
    S.TanhBackward(ts.data(), y.data(), n);
    V.TanhBackward(tv.data(), y.data(), n);
    EXPECT_TRUE(BitEqual(ts, tv)) << "TanhBackward n=" << n;

    ts = g, tv = g;
    S.SigmoidBackward(ts.data(), y.data(), n);
    V.SigmoidBackward(tv.data(), y.data(), n);
    EXPECT_TRUE(BitEqual(ts, tv)) << "SigmoidBackward n=" << n;

    S.SoftmaxBackwardRow(dxs.data(), y.data(), g.data(), 0.125f, n);
    V.SoftmaxBackwardRow(dxv.data(), y.data(), g.data(), 0.125f, n);
    EXPECT_TRUE(BitEqual(dxs, dxv)) << "SoftmaxBackwardRow n=" << n;

    auto gamma = RandomVec(n, &rng_);
    auto beta = RandomVec(n, &rng_);
    std::vector<float> xh_s(static_cast<size_t>(n)), out_s(xh_s);
    std::vector<float> xh_v(xh_s), out_v(out_s);
    S.LayerNormForwardRow(xh_s.data(), out_s.data(), x.data(), 0.25f, 1.5f,
                          gamma.data(), beta.data(), n);
    V.LayerNormForwardRow(xh_v.data(), out_v.data(), x.data(), 0.25f, 1.5f,
                          gamma.data(), beta.data(), n);
    EXPECT_TRUE(BitEqual(xh_s, xh_v)) << "LayerNorm xhat n=" << n;
    EXPECT_TRUE(BitEqual(out_s, out_v)) << "LayerNorm out n=" << n;
  }
}

// ---- accuracy of the shared transcendental approximations ----

TEST(KernelsAccuracyTest, ActivationsTrackLibm) {
  Rng rng(42);
  const int64_t n = 4096;
  auto x = RandomVec(n, &rng, -15.0f, 15.0f);
  const kernels::KernelTable& K = kernels::ScalarKernels();

  auto t = x;
  K.Tanh(t.data(), n);
  auto s = x;
  K.Sigmoid(s.data(), n);
  auto e = x;
  K.ExpSubSum(e.data(), 0.0f, n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(t[i], std::tanh(static_cast<double>(x[i])), 1e-5) << x[i];
    EXPECT_NEAR(s[i], 1.0 / (1.0 + std::exp(-static_cast<double>(x[i]))),
                1e-5)
        << x[i];
    double ref = std::exp(static_cast<double>(x[i]));
    EXPECT_NEAR(e[i], ref, 2e-6 * ref) << x[i];
  }
}

// ---- tensor-level parity: whole forward kernels, both backends ----

class TensorParityTest : public ::testing::Test {
 protected:
  void SetUp() override { SKIP_WITHOUT_AVX2(); }
  KernelEnvGuard guard_;

  template <typename Fn>
  void ExpectBackendsAgree(Fn fn) {
    kernels::ForceBackend(kernels::Backend::kScalar);
    Tensor scalar_out = fn();
    kernels::ForceBackend(kernels::Backend::kAvx2);
    Tensor simd_out = fn();
    ASSERT_EQ(scalar_out.size(), simd_out.size());
    EXPECT_EQ(std::memcmp(scalar_out.data(), simd_out.data(),
                          static_cast<size_t>(scalar_out.size()) * 4),
              0);
  }
};

TEST_F(TensorParityTest, MatMulFamily) {
  Rng rng(7);
  // Ragged inner and outer dimensions around the 8-lane boundary.
  const int64_t dims[][3] = {{1, 1, 1},   {1, 9, 1},   {3, 7, 5},
                             {8, 8, 8},   {13, 17, 9}, {16, 33, 31},
                             {64, 65, 63}};
  for (const auto& d : dims) {
    Tensor a = Tensor::RandomNormal({d[0], d[1]}, &rng);
    Tensor b = Tensor::RandomNormal({d[1], d[2]}, &rng);
    Tensor bt = Tensor::RandomNormal({d[2], d[1]}, &rng);
    Tensor at = Tensor::RandomNormal({d[1], d[0]}, &rng);
    ExpectBackendsAgree([&] { return MatMul(a, b); });
    ExpectBackendsAgree([&] { return MatMulTransposedB(a, bt); });
    ExpectBackendsAgree([&] { return MatMulTransposedA(at, b); });
  }
}

TEST_F(TensorParityTest, SoftmaxAndActivations) {
  Rng rng(11);
  for (int64_t cols : {1, 3, 8, 9, 31, 64, 100}) {
    Tensor a = Tensor::RandomNormal({5, cols}, &rng, 0.0f, 3.0f);
    ExpectBackendsAgree([&] { return SoftmaxRows(a); });
    ExpectBackendsAgree([&] { return LogSoftmaxRows(a); });
    ExpectBackendsAgree([&] { return Gelu(a); });
    ExpectBackendsAgree([&] { return Tanh(a); });
    ExpectBackendsAgree([&] { return Sigmoid(a); });
    ExpectBackendsAgree([&] { return SumRows(a); });
    ExpectBackendsAgree([&] { return MeanCols(a); });
  }
}

// With SIMD on, the thread count must remain a pure performance knob:
// 1-thread and 4-thread matmuls stay bit-identical (row partitioning never
// splits a row's accumulation).
TEST_F(TensorParityTest, ThreadCountInvariantWithSimd) {
  KernelEnvGuard guard;
  kernels::ForceBackend(kernels::Backend::kAvx2);
  Rng rng(23);
  Tensor a = Tensor::RandomNormal({96, 120}, &rng);
  Tensor b = Tensor::RandomNormal({120, 72}, &rng);
  SetGlobalThreads(1);
  Tensor c1 = MatMul(a, b);
  Tensor t1 = MatMulTransposedB(a, Transpose(b));
  SetGlobalThreads(4);
  Tensor c4 = MatMul(a, b);
  Tensor t4 = MatMulTransposedB(a, Transpose(b));
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(),
                        static_cast<size_t>(c1.size()) * 4),
            0);
  EXPECT_EQ(std::memcmp(t1.data(), t4.data(),
                        static_cast<size_t>(t1.size()) * 4),
            0);
}

// ---- int8 kernels: backend bit-equality and the tolerance contract ----

// Quantizes one activation row exactly the way int8.cc does (asymmetric
// 7-bit) so the kernel-level tests can drive Int8QuantizeRow/Int8GemmDequant
// with realistic scales and zero-points.
void RowQuantParams(const float* x, int64_t n, float* scale, int32_t* zp) {
  float mn = x[0], mx = x[0];
  for (int64_t i = 1; i < n; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  const float range = mx - mn;
  if (!(range > 0.0f)) {
    *scale = mn != 0.0f ? std::fabs(mn) / 127.0f : 1.0f;
    *zp = mn < 0.0f ? 127 : 0;
    return;
  }
  *scale = range / 127.0f;
  const long z = std::lrintf(-mn / *scale);
  *zp = z < 0 ? 0 : (z > 127 ? 127 : static_cast<int32_t>(z));
}

TEST(Int8KernelsParityTest, MinMaxMatchesScalarBitForBit) {
  SKIP_WITHOUT_AVX2();
  KernelEnvGuard guard;
  Rng rng(401);
  const auto& scalar = kernels::ScalarKernels();
  const auto& avx2 = *kernels::Avx2KernelsOrNull();
  for (int64_t n : kSizes) {
    if (n == 0) continue;  // MinMax requires n >= 1
    const auto x = RandomVec(n, &rng, -100.0f, 100.0f);
    float s_mn, s_mx, v_mn, v_mx;
    scalar.MinMax(x.data(), n, &s_mn, &s_mx);
    avx2.MinMax(x.data(), n, &v_mn, &v_mx);
    EXPECT_TRUE(BitEqualF(s_mn, v_mn)) << "n=" << n;
    EXPECT_TRUE(BitEqualF(s_mx, v_mx)) << "n=" << n;
    EXPECT_LE(s_mn, s_mx);
  }
}

TEST(Int8KernelsParityTest, QuantizeRowMatchesScalarExactly) {
  SKIP_WITHOUT_AVX2();
  KernelEnvGuard guard;
  Rng rng(402);
  const auto& scalar = kernels::ScalarKernels();
  const auto& avx2 = *kernels::Avx2KernelsOrNull();
  for (int64_t n : kSizes) {
    if (n == 0) continue;
    const auto x = RandomVec(n, &rng, -9.0f, 3.0f);
    float scale;
    int32_t zp;
    RowQuantParams(x.data(), n, &scale, &zp);
    std::vector<uint8_t> qs(static_cast<size_t>(n), 255);
    std::vector<uint8_t> qv(static_cast<size_t>(n), 254);
    scalar.Int8QuantizeRow(qs.data(), x.data(), 1.0f / scale, zp, n);
    avx2.Int8QuantizeRow(qv.data(), x.data(), 1.0f / scale, zp, n);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(qs[i], qv[i]) << "n=" << n << " i=" << i;
      EXPECT_LE(qs[i], 127) << "7-bit ceiling violated";
    }
  }
}

TEST(Int8KernelsParityTest, GemmDequantMatchesScalarBitForBit) {
  SKIP_WITHOUT_AVX2();
  KernelEnvGuard guard;
  Rng rng(403);
  const auto& scalar = kernels::ScalarKernels();
  const auto& avx2 = *kernels::Avx2KernelsOrNull();
  // m sweep crosses the 4-row block, k the 4-depth group padding, n the
  // 8-column accumulator block (including partial tail stores).
  const struct { int64_t m, k, n; } shapes[] = {
      {1, 1, 1},  {2, 7, 3},   {3, 31, 4},  {4, 32, 5},   {2, 33, 8},
      {5, 64, 7}, {1, 100, 9}, {6, 129, 2}, {3, 257, 13}, {2, 48, 48},
      {9, 48, 17},
  };
  for (const auto& s : shapes) {
    const int64_t k4 = kernels::Int8PaddedK(s.k);
    const int64_t n_pad = kernels::Int8PackedCols(s.n);
    // Activations at the padded row stride; pad bytes deliberately left as
    // garbage — the zero weight pad must make them irrelevant.
    std::vector<uint8_t> aq(static_cast<size_t>(s.m * k4), 255);
    for (int64_t r = 0; r < s.m; ++r) {
      for (int64_t p = 0; p < s.k; ++p) {
        aq[r * k4 + p] = static_cast<uint8_t>(rng.Uniform(0.0, 127.99));
      }
    }
    std::vector<int8_t> wq(static_cast<size_t>(s.n * s.k));
    for (auto& v : wq) v = static_cast<int8_t>(rng.Uniform(-127.0, 127.99));
    std::vector<int8_t> packed(static_cast<size_t>(n_pad * k4));
    kernels::Int8PackWeights(packed.data(), wq.data(), s.k, s.n);
    std::vector<float> sa(static_cast<size_t>(s.m));
    std::vector<int32_t> za(static_cast<size_t>(s.m));
    for (int64_t r = 0; r < s.m; ++r) {
      sa[r] = static_cast<float>(rng.Uniform(0.001, 0.1));
      za[r] = static_cast<int32_t>(rng.Uniform(0.0, 127.99));
    }
    std::vector<float> sw(static_cast<size_t>(n_pad), 1.0f);
    std::vector<int32_t> colsum(static_cast<size_t>(n_pad), 0);
    for (int64_t j = 0; j < s.n; ++j) {
      sw[j] = static_cast<float>(rng.Uniform(0.001, 0.1));
      int32_t sum = 0;
      for (int64_t p = 0; p < s.k; ++p) sum += wq[j * s.k + p];
      colsum[j] = sum;
    }
    std::vector<float> cs(static_cast<size_t>(s.m * s.n));
    std::vector<float> cv(static_cast<size_t>(s.m * s.n));
    scalar.Int8GemmDequant(cs.data(), aq.data(), sa.data(), za.data(), s.m,
                           packed.data(), sw.data(), colsum.data(), s.k,
                           s.n);
    avx2.Int8GemmDequant(cv.data(), aq.data(), sa.data(), za.data(), s.m,
                         packed.data(), sw.data(), colsum.data(), s.k, s.n);
    EXPECT_TRUE(BitEqual(cs, cv)) << "m=" << s.m << " k=" << s.k
                                  << " n=" << s.n;
  }
}

// The tolerance contract's elementwise bound, derived from first
// principles. Write x = sa·(qa − za) + εa and w = sw·qw + εw. The
// asymmetric activation grid spans the row's [min, max] exactly, but
// rounding the zero-point can shift the grid by up to half a step, so
// |εa| ≤ 1.5·sa; the symmetric weight grid gives |εw| ≤ sw/2. The int8
// product then differs from Σ x·w by at most
//     Σ_p ( |w_p|·1.5·sa + |x_p|·0.5·sw + 0.75·sa·sw )
// plus float rounding in the dequant multiply, covered by a small
// relative slack.
TEST(Int8KernelsAccuracyTest, GemmErrorWithinDerivedBound) {
  KernelEnvGuard guard;
  Rng rng(404);
  const int64_t m = 16, k = 256, n = 64;
  const auto x = RandomVec(m * k, &rng, -3.0f, 3.0f);
  const auto w = RandomVec(k * n, &rng, -0.5f, 0.5f);

  const int64_t k4 = kernels::Int8PaddedK(k);
  const int64_t n_pad = kernels::Int8PackedCols(n);
  std::vector<uint8_t> aq(static_cast<size_t>(m * k4), 0);
  std::vector<float> sa(static_cast<size_t>(m));
  std::vector<int32_t> za(static_cast<size_t>(m));
  const auto& kern = kernels::Active();
  for (int64_t r = 0; r < m; ++r) {
    RowQuantParams(x.data() + r * k, k, &sa[r], &za[r]);
    kern.Int8QuantizeRow(aq.data() + r * k4, x.data() + r * k, 1.0f / sa[r],
                         za[r], k);
  }
  std::vector<int8_t> wq(static_cast<size_t>(n * k));
  std::vector<float> sw(static_cast<size_t>(n_pad), 1.0f);
  std::vector<int32_t> colsum(static_cast<size_t>(n_pad), 0);
  for (int64_t j = 0; j < n; ++j) {
    float amax = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      amax = std::max(amax, std::fabs(w[p * n + j]));
    }
    sw[j] = amax > 0.0f ? amax / 127.0f : 1.0f;
    int32_t sum = 0;
    for (int64_t p = 0; p < k; ++p) {
      long v = std::lrintf(w[p * n + j] / sw[j]);
      v = v < -127 ? -127 : (v > 127 ? 127 : v);
      wq[j * k + p] = static_cast<int8_t>(v);
      sum += static_cast<int32_t>(v);
    }
    colsum[j] = sum;
  }
  std::vector<int8_t> packed(static_cast<size_t>(n_pad * k4));
  kernels::Int8PackWeights(packed.data(), wq.data(), k, n);
  std::vector<float> c(static_cast<size_t>(m * n));
  kern.Int8GemmDequant(c.data(), aq.data(), sa.data(), za.data(), m,
                       packed.data(), sw.data(), colsum.data(), k, n);

  for (int64_t r = 0; r < m; ++r) {
    for (int64_t j = 0; j < n; ++j) {
      double ref = 0.0, bound = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const double xv = x[r * k + p];
        const double wv = w[p * n + j];
        ref += xv * wv;
        bound += std::fabs(wv) * 1.5 * sa[r] + std::fabs(xv) * 0.5 * sw[j] +
                 0.75 * static_cast<double>(sa[r]) * sw[j];
      }
      const double err = std::fabs(static_cast<double>(c[r * n + j]) - ref);
      EXPECT_LE(err, bound * 1.0001 + 1e-4)
          << "r=" << r << " j=" << j << " ref=" << ref;
    }
  }
}

TEST(TensorBoundsTest, DebugAtChecksBounds) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t.at(1, 2), 5.0f);
#if !defined(NDEBUG)
  EXPECT_DEATH(t.at(2, 0), "");
  EXPECT_DEATH(t.at(0, 3), "");
#endif
}

}  // namespace
}  // namespace emba
