#ifndef SUBEX_COMMON_MATRIX_H_
#define SUBEX_COMMON_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/check.h"

namespace subex {

/// Dense row-major matrix of doubles.
///
/// The numeric workhorse of the library: datasets are stored as one matrix
/// (rows = points, columns = features) and detectors operate on row views
/// restricted to feature subsets. The storage is a single contiguous buffer,
/// so row access is cache-friendly and a `Row()` span is a zero-copy view.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a `rows` x `cols` matrix with all entries zero.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Creates a matrix from nested initializer lists (row by row).
  /// All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Number of rows (points).
  std::size_t rows() const { return rows_; }
  /// Number of columns (features).
  std::size_t cols() const { return cols_; }
  /// True when the matrix holds no elements.
  bool empty() const { return data_.empty(); }

  /// Mutable element access. Bounds are checked in debug builds only.
  double& operator()(std::size_t r, std::size_t c) {
    SUBEX_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  /// Const element access. Bounds are checked in debug builds only.
  double operator()(std::size_t r, std::size_t c) const {
    SUBEX_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Zero-copy view of row `r`.
  std::span<const double> Row(std::size_t r) const {
    SUBEX_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  /// Mutable zero-copy view of row `r`.
  std::span<double> MutableRow(std::size_t r) {
    SUBEX_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Copies column `c` into a fresh vector (column access is strided).
  std::vector<double> Column(std::size_t c) const;

  /// Appends a row; its length must equal `cols()` (or define the width when
  /// the matrix is still empty).
  void AppendRow(std::span<const double> row);

  /// Returns a new matrix containing only the listed columns, in the given
  /// order. Column indices must be in range.
  Matrix SelectColumns(std::span<const int> columns) const;

  /// Returns a new matrix containing only the listed rows, in the given
  /// order. Row indices must be in range.
  Matrix SelectRows(std::span<const int> rows) const;

  /// Raw contiguous storage (row-major).
  const double* data() const { return data_.data(); }

  /// Element-wise equality (exact; intended for tests).
  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Squared Euclidean distance between rows `a` and `b` of `m`, restricted to
/// the feature ids in `features`: from 0.0, one `(a - b)^2` per feature, in
/// `features` order. Every kNN path accumulates distances in this order, so
/// their lists agree bit for bit.
inline double SquaredDistance(const Matrix& m, std::size_t a, std::size_t b,
                              std::span<const int> features) {
  const double* ra = m.data() + a * m.cols();
  const double* rb = m.data() + b * m.cols();
  double sum = 0.0;
  for (int f : features) {
    const double d = ra[f] - rb[f];
    sum += d * d;
  }
  return sum;
}

}  // namespace subex

#endif  // SUBEX_COMMON_MATRIX_H_
