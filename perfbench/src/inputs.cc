#include "inputs.h"

namespace perfbench {

std::vector<float> UniformFloats(std::uint64_t seed, std::uint64_t stream,
                                 std::size_t count, float lo, float hi) {
  Rng rng(seed, stream);
  std::vector<float> out(count);
  for (float& v : out) v = rng.Uniform(lo, hi);
  return out;
}

std::vector<float> StochasticMatrix(std::uint64_t seed, std::uint64_t stream,
                                    std::size_t n) {
  Rng rng(seed, stream);
  std::vector<float> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    float sum = 0.0f;
    for (std::size_t k = 0; k < n; ++k) {
      a[i * n + k] = rng.Uniform(0.0f, 1.0f);
      sum += a[i * n + k];
    }
    for (std::size_t k = 0; k < n; ++k) a[i * n + k] /= sum;
  }
  return a;
}

void FillWords(std::uint64_t seed, std::uint64_t stream,
               std::vector<std::uint32_t>* words) {
  Rng rng(seed, stream);
  std::size_t i = 0;
  for (; i + 1 < words->size(); i += 2) {
    const std::uint64_t bits = rng.Next();
    (*words)[i] = static_cast<std::uint32_t>(bits);
    (*words)[i + 1] = static_cast<std::uint32_t>(bits >> 32);
  }
  if (i < words->size()) (*words)[i] = static_cast<std::uint32_t>(rng.Next());
}

void SaxpyReference(float a, const std::vector<float>& x,
                    const std::vector<float>& y, std::vector<float>* out) {
  out->resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) (*out)[i] = a * x[i] + y[i];
}

void MatmulReference(const std::vector<float>& a, const std::vector<float>& x,
                     std::size_t n, std::vector<float>* out) {
  out->assign(n * n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out->data() + i * n;
    for (std::size_t k = 0; k < n; ++k) {
      const float aik = a[i * n + k];
      const float* xk = x.data() + k * n;
      for (std::size_t j = 0; j < n; ++j) row[j] = row[j] + aik * xk[j];
    }
  }
}

}  // namespace perfbench
