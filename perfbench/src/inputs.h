// Seeded input generation and the plain single-threaded host references
// every workload's output is checked against.
//
// All inputs derive from (seed, stream): the same pair always yields the
// same bytes on every platform (SplitMix64, no <random> distributions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// SplitMix64: the generator behind every input.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 0x632BE59BD9B4E019ull)) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi), 24 bits of resolution.
  float Uniform(float lo, float hi) {
    const float unit = static_cast<float>(Next() >> 40) * (1.0f / 16777216.0f);
    return lo + (hi - lo) * unit;
  }

 private:
  std::uint64_t state_;
};

std::vector<float> UniformFloats(std::uint64_t seed, std::uint64_t stream,
                                 std::size_t count, float lo, float hi);

// Row-stochastic n x n matrix (non-negative rows summing to ~1), so a
// chain X <- A * X stays bounded however long it runs.
std::vector<float> StochasticMatrix(std::uint64_t seed, std::uint64_t stream,
                                    std::size_t n);

// Fills `words` with pseudo-random 32-bit words.
void FillWords(std::uint64_t seed, std::uint64_t stream,
               std::vector<std::uint32_t>* words);

// out[i] = a * x[i] + y[i], one rounding per operation.
void SaxpyReference(float a, const std::vector<float>& x,
                    const std::vector<float>& y, std::vector<float>* out);

// out = A * X for row-major n x n matrices, each element summed in
// ascending k with one rounding per multiply and per add — the order the
// benchmark's OpenCL matmul kernel uses.
void MatmulReference(const std::vector<float>& a, const std::vector<float>& x,
                     std::size_t n, std::vector<float>* out);

}  // namespace perfbench
