#ifndef SUBEX_DETECT_SIMD_H_
#define SUBEX_DETECT_SIMD_H_

// Internal to src/detect, its tests and benches: which inner loops the
// Isolation Forest and kNN kernels run, and the seams that let a test run
// the scalar and the AVX-512 loops on the same inputs. Both paths return
// the same bits; the scalar loops are the reference and the fallback.

#include <utility>
#include <vector>

#include "data/dataset.h"
#include "detect/isolation_forest.h"
#include "detect/knn.h"
#include "subspace/subspace.h"

// The AVX-512 loops are compiled, behind a `target` attribute, on x86-64
// GCC and Clang; elsewhere only the scalar loops exist.
#if defined(__x86_64__) && defined(__GNUC__)
#define SUBEX_HAVE_AVX512_KERNELS 1
#define SUBEX_AVX512_TARGET __attribute__((target("avx512f,avx512vl")))
#else
#define SUBEX_HAVE_AVX512_KERNELS 0
#endif

namespace subex {

enum class KernelPath { kScalar, kAvx512 };

/// The path this process runs: `kAvx512` when CPUID reports AVX-512F and
/// AVX-512VL, else `kScalar`. Decided on the first call, the same for every
/// later one.
KernelPath ActiveKernelPath();

/// "scalar" or "avx512".
const char* KernelPathName(KernelPath path);

/// `IsolationForest::Score`, on the given path's primitives. The score is
/// the same double on both paths.
std::vector<double> IsolationForestScores(
    const IsolationForest::Options& options, const Dataset& data,
    const Subspace& subspace, KernelPath path);

/// `SweepKnn`, on the given path's sweep. The table is the same on both
/// paths. The AVX-512 sweep runs only when every packed subspace value is
/// finite; otherwise the scalar sweep does.
KnnTable SweepKnnOn(const Dataset& data, const Subspace& subspace, int k,
                    KernelPath path);

/// The primitives one Isolation Forest tree runs. Each version returns the
/// bits of the other on every input, NaN and signed zeros included.
///
/// `Split` writes the rows p in [0, n) with `taken[p] != 0` to `front` and
/// the others to `back`, each in ascending order, and returns how many went
/// to `front`. The node primitives work on the rows `rows[0, count)` of one
/// column-major block column. `ScanRange` stores `values[i] =
/// column[rows[i]]` and returns {min, max} of those values (count >= 1) as
/// two `std::min`/`std::max` accumulator pairs seeded from `values[0]`
/// would: a NaN `values[0]` makes both NaN, any other NaN is ignored.
/// `Partition` stably moves the rows with `values[i] < split` to the front
/// (the rest after them, in order, through `scratch`) and returns how many
/// there are; `PartitionGather` does the same reading `column[rows[i]]`.
/// `Fill` stores `path` in `paths[0, count)`. `Credit` adds `paths[i]` to
/// `path_sum[rows[i]]` for each of the (distinct) rows.
struct ScalarIForestOps {
  static int Split(const unsigned char* taken, int n, int* front, int* back);
  static std::pair<double, double> ScanRange(const double* column,
                                             const int* rows, int count,
                                             double* values);
  static int Partition(int* rows, int count, const double* values,
                       double split, int* scratch);
  static int PartitionGather(int* rows, int count, const double* column,
                             double split, int* scratch);
  static void Fill(double* paths, int count, double path);
  static void Credit(const int* rows, int count, const double* paths,
                     double* path_sum);
};

#if SUBEX_HAVE_AVX512_KERNELS
/// `ScalarIForestOps` in AVX-512 masks: `Split` tests 16 mask bytes per
/// step, the node primitives run 8 lanes per step, and a node of at most 8
/// rows is partitioned in one register without `scratch`. Call only when
/// `ActiveKernelPath()` is `kAvx512`.
struct Avx512IForestOps {
  SUBEX_AVX512_TARGET static int Split(const unsigned char* taken, int n,
                                       int* front, int* back);
  SUBEX_AVX512_TARGET static std::pair<double, double> ScanRange(
      const double* column, const int* rows, int count, double* values);
  SUBEX_AVX512_TARGET static int Partition(int* rows, int count,
                                           const double* values, double split,
                                           int* scratch);
  SUBEX_AVX512_TARGET static int PartitionGather(int* rows, int count,
                                                 const double* column,
                                                 double split, int* scratch);
  SUBEX_AVX512_TARGET static void Fill(double* paths, int count, double path);
  SUBEX_AVX512_TARGET static void Credit(const int* rows, int count,
                                         const double* paths,
                                         double* path_sum);
};
#endif

}  // namespace subex

#endif  // SUBEX_DETECT_SIMD_H_
