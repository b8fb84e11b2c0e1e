#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/check.h"

namespace subex {

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

double SumSquaredDeviation(std::span<const double> values, double mean) {
  double ss = 0.0;
  for (double v : values) {
    const double d = v - mean;
    ss += d * d;
  }
  return ss;
}

}  // namespace

double SampleVariance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  return SumSquaredDeviation(values, Mean(values)) /
         static_cast<double>(values.size() - 1);
}

double PopulationVariance(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return SumSquaredDeviation(values, Mean(values)) /
         static_cast<double>(values.size());
}

double SampleStdDev(std::span<const double> values) {
  return std::sqrt(SampleVariance(values));
}

double Min(std::span<const double> values) {
  SUBEX_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

double Max(std::span<const double> values) {
  SUBEX_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

double Median(std::span<const double> values) {
  SUBEX_CHECK(!values.empty());
  std::vector<double> copy(values.begin(), values.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
  if (copy.size() % 2 == 1) return copy[mid];
  const double upper = copy[mid];
  const double lower = *std::max_element(copy.begin(), copy.begin() + mid);
  return 0.5 * (lower + upper);
}

std::vector<double> Standardize(std::span<const double> values) {
  const auto finite = [](double v) { return std::isfinite(v); };
  // The mean and sd come from `Mean` and `PopulationVariance` over the
  // finite scores, so an all-finite vector keeps its bits.
  std::vector<double> finite_values;
  std::span<const double> basis = values;
  if (!std::all_of(values.begin(), values.end(), finite)) {
    std::copy_if(values.begin(), values.end(),
                 std::back_inserter(finite_values), finite);
    basis = finite_values;
  }
  double mean = Mean(basis);
  double sd = std::sqrt(PopulationVariance(basis));
  // When the finite scores' sum or squared deviations overflow, take both
  // again over the scores times a power of two that brings the largest
  // magnitude below 1: the scaling is exact (bar the underflow of scores
  // far too small to move either), and every score is scaled the same way.
  double scale = 1.0;
  if (!std::isfinite(mean) || !std::isfinite(sd)) {
    double largest = 0.0;
    for (double v : basis) largest = std::max(largest, std::abs(v));
    int exponent = 0;
    std::frexp(largest, &exponent);
    scale = std::ldexp(1.0, -exponent);
    std::vector<double> scaled;
    for (double v : basis) scaled.push_back(v * scale);
    mean = Mean(scaled);
    sd = std::sqrt(PopulationVariance(scaled));
  }
  std::vector<double> out(values.size(), 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (sd >= 1e-12 * scale) {
      out[i] = (values[i] * scale - mean) / sd;
    } else if (!finite(values[i])) {
      out[i] = values[i];
    }
  }
  return out;
}

}  // namespace subex
