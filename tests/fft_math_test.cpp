// Validates the radix-2 FFT kernel against a direct DFT, plus transform
// identities (roundtrip, linearity, Parseval).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "updsm/apps/fft.hpp"
#include "updsm/common/rng.hpp"

namespace updsm::apps {
namespace {

using Cvec = std::vector<std::complex<double>>;

Cvec to_complex(const std::vector<double>& interleaved) {
  Cvec out(interleaved.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {interleaved[2 * i], interleaved[2 * i + 1]};
  }
  return out;
}

Cvec naive_dft(const Cvec& in, bool inverse) {
  const std::size_t n = in.size();
  Cvec out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(k * j) / static_cast<double>(n);
      acc += in[j] * std::complex<double>{std::cos(ang), std::sin(ang)};
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  std::vector<double> signal(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    signal[i] =
        static_cast<double>(splitmix64(seed + i) >> 11) * 0x1.0p-53 - 0.5;
  }
  return signal;
}

class FftLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLengthTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 17);
  const Cvec reference = naive_dft(to_complex(signal), /*inverse=*/false);
  fft_radix2(signal.data(), n, /*inverse=*/false);
  const Cvec fast = to_complex(signal);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), reference[k].real(), 1e-9 * n);
    EXPECT_NEAR(fast[k].imag(), reference[k].imag(), 1e-9 * n);
  }
}

TEST_P(FftLengthTest, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 23);
  auto signal = original;
  fft_radix2(signal.data(), n, /*inverse=*/false);
  fft_radix2(signal.data(), n, /*inverse=*/true);
  // Unnormalized: inverse(forward(x)) == n * x.
  for (std::size_t i = 0; i < 2 * n; ++i) {
    EXPECT_NEAR(signal[i], original[i] * static_cast<double>(n), 1e-9 * n);
  }
}

TEST_P(FftLengthTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 31);
  double time_energy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    time_energy += signal[2 * i] * signal[2 * i] +
                   signal[2 * i + 1] * signal[2 * i + 1];
  }
  fft_radix2(signal.data(), n, /*inverse=*/false);
  double freq_energy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    freq_energy += signal[2 * i] * signal[2 * i] +
                   signal[2 * i + 1] * signal[2 * i + 1];
  }
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           // Appending, not "n" + std::string: GCC 12
                           // raises a false -Wrestrict on the latter.
                           std::string name = "n";
                           name += std::to_string(i.param);
                           return name;
                         });

TEST(FftTest, LinearityOfTransform) {
  constexpr std::size_t n = 64;
  auto a = random_signal(n, 1);
  auto b = random_signal(n, 2);
  std::vector<double> sum(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  fft_radix2(a.data(), n, false);
  fft_radix2(b.data(), n, false);
  fft_radix2(sum.data(), n, false);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    EXPECT_NEAR(sum[i], 2.0 * a[i] + 3.0 * b[i], 1e-9);
  }
}

TEST(FftTest, ImpulseTransformsToConstant) {
  constexpr std::size_t n = 32;
  std::vector<double> signal(2 * n, 0.0);
  signal[0] = 1.0;  // delta at t=0
  fft_radix2(signal.data(), n, false);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(signal[2 * k], 1.0, 1e-12);
    EXPECT_NEAR(signal[2 * k + 1], 0.0, 1e-12);
  }
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<double> signal(2 * 12);
  EXPECT_THROW(fft_radix2(signal.data(), 12, false), UsageError);
  EXPECT_THROW(fft_radix2(signal.data(), 0, false), UsageError);
}

}  // namespace
}  // namespace updsm::apps
