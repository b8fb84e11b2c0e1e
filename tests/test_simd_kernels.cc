// Differential tests of the AVX-512 inner loops (src/detect/simd.h): the
// vector and scalar versions run on the same seeded inputs and must agree
// bit for bit, NaN and signed zeros included. Each test checks the scalar
// half on every host and skips only the vector half where the host has no
// AVX-512F/VL.

#include "detect/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace subex {
namespace {

constexpr char kNoAvx512[] =
    "host has no AVX-512F/VL: only the scalar half ran";

bool HostRunsAvx512() {
  return ActiveKernelPath() == KernelPath::kAvx512;
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (double v : values) bits.push_back(Bits(v));
  return bits;
}

// splitmix64: a platform-independent stream for the generated inputs.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<unsigned>(n));
  }

 private:
  std::uint64_t state_;
};

enum class Column {
  kUniform,      // distinct values in [0, 1)
  kDuplicates,   // three levels
  kSignedZeros,  // +0, -0 and +/-1
  kNarrow,       // width below the 1e-12 split threshold
  kNonFinite,    // uniform with NaN and +/-Inf, the first row included
};
constexpr Column kColumns[] = {Column::kUniform, Column::kDuplicates,
                               Column::kSignedZeros, Column::kNarrow,
                               Column::kNonFinite};

double Draw(Column column, int row, Stream& s) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  switch (column) {
    case Column::kUniform:
      return s.Unit();
    case Column::kDuplicates:
      return 0.5 * s.Below(3);
    case Column::kSignedZeros: {
      static constexpr double kLevels[] = {0.0, -0.0, 1.0, -1.0, 0.0, -0.0};
      return kLevels[s.Below(6)];
    }
    case Column::kNarrow:
      return 0.25 + 1e-14 * s.Unit();
    case Column::kNonFinite:
      if (row == 0 && s.Below(2) == 0) return nan;
      switch (s.Below(10)) {
        case 0:
          return nan;
        case 1:
          return inf;
        case 2:
          return -inf;
        default:
          return s.Unit();
      }
  }
  return 0.0;
}

// n x d; feature f is drawn as `kinds[f]`.
Dataset MakeData(int n, const std::vector<Column>& kinds, Stream& s) {
  const int d = static_cast<int>(kinds.size());
  Matrix m(n, d);
  for (int p = 0; p < n; ++p) {
    for (int f = 0; f < d; ++f) m(p, f) = Draw(kinds[f], p, s);
  }
  return Dataset(std::move(m));
}

// Column kinds for a d-feature case: all of one kind, or mixed.
std::vector<std::vector<Column>> KindSets(int d, Stream& s) {
  std::vector<std::vector<Column>> sets;
  for (Column c : kColumns) sets.emplace_back(d, c);
  std::vector<Column> mixed(d);
  for (Column& c : mixed) c = kColumns[s.Below(5)];
  sets.push_back(mixed);
  return sets;
}

const std::vector<int> kSizes = {2,  3,  4,  5,  6,   7,   8,
                                 9, 15, 16, 17, 216, 300, 1000};

// The subspaces scored per case: the full space, each single feature up to
// three, the first two, and the last three.
std::vector<Subspace> Subspaces(int d) {
  std::vector<Subspace> subspaces = {Subspace()};
  for (int f = 0; f < std::min(d, 3); ++f) subspaces.push_back(Subspace({f}));
  if (d >= 2) subspaces.push_back(Subspace({0, 1}));
  if (d >= 4) subspaces.push_back(Subspace({d - 3, d - 2, d - 1}));
  return subspaces;
}

// --- Isolation Forest primitives -----------------------------------------

// A column of `size` values of kind `kind` and `count` distinct rows of it
// in random order.
struct PrimitiveCase {
  std::vector<double> column;
  std::vector<int> rows;
};

PrimitiveCase MakePrimitiveCase(Column kind, int size, int count, Stream& s) {
  PrimitiveCase c;
  for (int p = 0; p < size; ++p) c.column.push_back(Draw(kind, p, s));
  std::vector<int> all(size);
  std::iota(all.begin(), all.end(), 0);
  for (int i = 0; i < count; ++i) {
    std::swap(all[i], all[i + s.Below(size - i)]);
  }
  c.rows.assign(all.begin(), all.begin() + count);
  if (kind == Column::kNonFinite && s.Below(2) == 0) {
    c.column[c.rows[0]] = std::numeric_limits<double>::quiet_NaN();
  }
  return c;
}

// Every count the node loop can see around the 8-lane tails, and a few
// whole-node sizes.
std::vector<int> PrimitiveCounts() {
  std::vector<int> counts;
  for (int count = 1; count <= 40; ++count) counts.push_back(count);
  for (int count : {63, 64, 65, 128, 216, 256, 300}) counts.push_back(count);
  return counts;
}

template <class Ops>
struct PrimitiveResult {
  std::uint64_t lo = 0, hi = 0;
  std::vector<double> values;
  std::vector<int> partitioned, gathered;
  int mid = 0, gathered_mid = 0;
  std::vector<double> credited, credited_per_row, filled;

  PrimitiveResult(const PrimitiveCase& c, double split_u) {
    const int count = static_cast<int>(c.rows.size());
    values.assign(count, -1.0);
    const auto [min, max] =
        Ops::ScanRange(c.column.data(), c.rows.data(), count, values.data());
    lo = Bits(min);
    hi = Bits(max);
    // A split inside the finite range when there is one, else 0.5.
    const double split = std::isfinite(max - min) ? min + (max - min) * split_u
                                                  : 0.5;
    std::vector<int> scratch(count);
    partitioned = c.rows;
    mid = Ops::Partition(partitioned.data(), count, values.data(), split,
                         scratch.data());
    gathered = c.rows;
    gathered_mid = Ops::PartitionGather(gathered.data(), count,
                                        c.column.data(), split,
                                        scratch.data());
    // One path for every row, as a leaf stores it, then one path per row,
    // as the per-tree pass adds a tree's leaves.
    filled.assign(count + 1, -1.0);
    Ops::Fill(filled.data(), count, 1.0 + split_u);
    credited.assign(c.column.size(), 0.25);
    Ops::Credit(c.rows.data(), count, filled.data(), credited.data());
    credited_per_row = credited;
    Ops::Credit(c.rows.data(), count, values.data(), credited_per_row.data());
  }
};

// The scalar primitives against the straightforward definitions.
TEST(IsolationForestSimdTest, ScalarPrimitivesMatchDefinitions) {
  Stream s(11);
  for (Column kind : kColumns) {
    for (int count : PrimitiveCounts()) {
      const PrimitiveCase c = MakePrimitiveCase(kind, count + 7, count, s);
      const double split_u = s.Unit();
      const PrimitiveResult<ScalarIForestOps> r(c, split_u);
      std::vector<double> values;
      for (int p : c.rows) values.push_back(c.column[p]);
      ASSERT_EQ(Bits(r.values), Bits(values));
      const double first = values[0];
      if (std::isnan(first)) {
        EXPECT_EQ(r.lo, Bits(first));
        EXPECT_EQ(r.hi, Bits(first));
      } else {
        double lo = first, hi = first;
        for (double v : values) {
          if (v < lo) lo = v;
          if (v > hi) hi = v;
        }
        // Which zero a zero bound carries is the accumulation order's.
        EXPECT_TRUE(r.lo == Bits(lo) || (lo == 0.0 && r.lo << 1 == 0));
        EXPECT_TRUE(r.hi == Bits(hi) || (hi == 0.0 && r.hi << 1 == 0));
      }
      std::vector<int> expected = c.rows;
      const double split = 0.5;
      std::vector<int> scratch(count);
      std::vector<int> rows = c.rows;
      const int mid = ScalarIForestOps::PartitionGather(
          rows.data(), count, c.column.data(), split, scratch.data());
      const auto it = std::stable_partition(
          expected.begin(), expected.end(),
          [&](int p) { return c.column[p] < split; });
      EXPECT_EQ(mid, it - expected.begin());
      EXPECT_EQ(rows, expected);
      std::vector<double> filled(count, 1.0 + split_u);
      filled.push_back(-1.0);
      EXPECT_EQ(Bits(r.filled), Bits(filled));
      std::vector<double> credited(c.column.size(), 0.25);
      for (int i = 0; i < count; ++i) credited[c.rows[i]] += filled[i];
      EXPECT_EQ(Bits(r.credited), Bits(credited));
      for (int i = 0; i < count; ++i) credited[c.rows[i]] += values[i];
      EXPECT_EQ(Bits(r.credited_per_row), Bits(credited));
    }
  }
}

TEST(IsolationForestSimdTest, PrimitivesMatchScalarBitwise) {
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
#if SUBEX_HAVE_AVX512_KERNELS
  Stream s(12);
  for (int round = 0; round < 4; ++round) {
    for (Column kind : kColumns) {
      for (int count : PrimitiveCounts()) {
        const PrimitiveCase c =
            MakePrimitiveCase(kind, count + s.Below(9), count, s);
        const double split_u = s.Unit();
        const PrimitiveResult<ScalarIForestOps> scalar(c, split_u);
        const PrimitiveResult<Avx512IForestOps> vector(c, split_u);
        SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                        << ", count " << count);
        EXPECT_EQ(vector.lo, scalar.lo);
        EXPECT_EQ(vector.hi, scalar.hi);
        EXPECT_EQ(Bits(vector.values), Bits(scalar.values));
        EXPECT_EQ(vector.mid, scalar.mid);
        EXPECT_EQ(vector.partitioned, scalar.partitioned);
        EXPECT_EQ(vector.gathered_mid, scalar.gathered_mid);
        EXPECT_EQ(vector.gathered, scalar.gathered);
        EXPECT_EQ(Bits(vector.filled), Bits(scalar.filled));
        EXPECT_EQ(Bits(vector.credited), Bits(scalar.credited));
        EXPECT_EQ(Bits(vector.credited_per_row),
                  Bits(scalar.credited_per_row));
      }
    }
  }
#endif
}

// `Split` over the masks `Rng::SampleMask` draws and over arbitrary bytes
// (any nonzero byte is taken), in a buffer of exactly n bytes so that a read
// past the mask's end shows under ASan. The sizes straddle the 16-byte
// steps; psi is 2, n - 1 and n.
TEST(IsolationForestSimdTest, SplitMatchesScalarBitwise) {
  std::vector<int> sizes;
  for (int n = 1; n <= 17; ++n) sizes.push_back(n);
  for (int n : {31, 32, 33, 300}) sizes.push_back(n);
  Stream s(14);
  Rng rng(14);
  for (int n : sizes) {
    for (int psi : {2, n - 1, n}) {
      if (psi < 0 || psi > n) continue;
      for (int round = 0; round < 3; ++round) {
        std::vector<unsigned char> taken(n);
        if (round < 2) {
          rng.SampleMask(psi, taken);
        } else {
          for (unsigned char& b : taken) b = s.Below(2) == 0 ? 0 : s.Below(256);
        }
        std::vector<int> front, back;
        for (int p = 0; p < n; ++p) (taken[p] ? front : back).push_back(p);
        std::vector<int> rows(n + 1, -1);
        const int num_front = ScalarIForestOps::Split(
            taken.data(), n, rows.data(), rows.data() + front.size());
        SCOPED_TRACE(testing::Message() << "n " << n << ", psi " << psi
                                        << ", round " << round);
        ASSERT_EQ(num_front, static_cast<int>(front.size()));
        std::vector<int> expected = front;
        expected.insert(expected.end(), back.begin(), back.end());
        expected.push_back(-1);
        ASSERT_EQ(rows, expected);
        if (!HostRunsAvx512()) continue;
#if SUBEX_HAVE_AVX512_KERNELS
        std::vector<int> vector_rows(n + 1, -1);
        EXPECT_EQ(Avx512IForestOps::Split(taken.data(), n, vector_rows.data(),
                                          vector_rows.data() + front.size()),
                  num_front);
        EXPECT_EQ(vector_rows, rows);
#endif
      }
    }
  }
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
}

// Nodes of at most 8 rows, which the vector path partitions in one
// register: every count from 0 to 8 and every below/above pattern of its
// rows, read in place and gathered, with the slot past the node untouched.
TEST(IsolationForestSimdTest, SmallPartitionsMatchScalarBitwise) {
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
#if SUBEX_HAVE_AVX512_KERNELS
  Stream s(15);
  for (int count = 0; count <= 8; ++count) {
    for (unsigned pattern = 0; pattern < (1u << count); ++pattern) {
      const PrimitiveCase c =
          MakePrimitiveCase(Column::kUniform, 9 + s.Below(4), count, s);
      std::vector<double> column = c.column;
      std::vector<double> values;
      for (int i = 0; i < count; ++i) {
        column[c.rows[i]] = (pattern >> i & 1u) ? 0.25 : 0.75;
        values.push_back(column[c.rows[i]]);
      }
      std::vector<int> scratch(count + 1);
      std::vector<int> scalar = c.rows, vector = c.rows;
      scalar.push_back(-1);
      vector.push_back(-1);
      SCOPED_TRACE(testing::Message() << "count " << count << ", pattern "
                                      << pattern);
      const int mid = ScalarIForestOps::Partition(
          scalar.data(), count, values.data(), 0.5, scratch.data());
      EXPECT_EQ(Avx512IForestOps::Partition(vector.data(), count,
                                            values.data(), 0.5,
                                            scratch.data()),
                mid);
      EXPECT_EQ(mid, __builtin_popcount(pattern));
      EXPECT_EQ(vector, scalar);
      scalar = c.rows;
      vector = c.rows;
      scalar.push_back(-1);
      vector.push_back(-1);
      const int gathered_mid = ScalarIForestOps::PartitionGather(
          scalar.data(), count, column.data(), 0.5, scratch.data());
      EXPECT_EQ(Avx512IForestOps::PartitionGather(vector.data(), count,
                                                  column.data(), 0.5,
                                                  scratch.data()),
                gathered_mid);
      EXPECT_EQ(gathered_mid, mid);
      EXPECT_EQ(vector, scalar);
    }
  }
#endif
}

// Whole forests on both paths: every size, width and column kind, with
// subsamples of 2, 8 and 256 rows (clamped to n).
TEST(IsolationForestSimdTest, ScoresMatchScalarBitwise) {
  IsolationForest::Options options;
  options.num_trees = 8;
  options.num_repetitions = 2;
  Stream s(13);
  int cases = 0;
  for (int n : kSizes) {
    for (int d = 1; d <= 9; ++d) {
      for (const std::vector<Column>& kinds : KindSets(d, s)) {
        const Dataset data = MakeData(n, kinds, s);
        options.seed = s.Next();
        for (const Subspace& subspace : Subspaces(d)) {
          for (int psi : {2, 8, 256}) {
            options.subsample_size = psi;
            const std::vector<double> scalar = IsolationForestScores(
                options, data, subspace, KernelPath::kScalar);
            ASSERT_EQ(scalar.size(), static_cast<std::size_t>(n));
            if (!HostRunsAvx512()) continue;
            SCOPED_TRACE(testing::Message()
                         << "n " << n << ", d " << d << ", psi " << psi
                         << ", subspace " << subspace.ToString());
            ASSERT_EQ(Bits(IsolationForestScores(options, data, subspace,
                                                 KernelPath::kAvx512)),
                      Bits(scalar));
            ++cases;
          }
        }
      }
    }
  }
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
  EXPECT_GT(cases, 3000);
}

// --- kNN sweep -------------------------------------------------------------

std::vector<std::uint64_t> TableBits(const KnnTable& table) {
  std::vector<std::uint64_t> bits;
  for (const Neighbor& nb : table.entries) {
    bits.push_back(static_cast<std::uint64_t>(nb.index));
    bits.push_back(Bits(nb.distance));
  }
  return bits;
}

void ExpectSweepsMatch(const Dataset& data, int k, int* cases) {
  const int d = static_cast<int>(data.num_features());
  for (const Subspace& subspace : Subspaces(d)) {
    const KnnTable scalar = SweepKnnOn(data, subspace, k, KernelPath::kScalar);
    ASSERT_EQ(scalar.entries.size(),
              data.num_points() * static_cast<std::size_t>(scalar.k));
    if (!HostRunsAvx512()) continue;
    SCOPED_TRACE(testing::Message() << "n " << data.num_points() << ", d "
                                    << d << ", k " << k << ", subspace "
                                    << subspace.ToString());
    ASSERT_EQ(TableBits(SweepKnnOn(data, subspace, k, KernelPath::kAvx512)),
              TableBits(scalar));
    ++*cases;
  }
}

// Tables on both paths: every size, width and column kind, k = 1 and 15
// (past n - 1 for the small sizes). Non-finite data runs the scalar sweep
// on both; without that gate, commuted lane arithmetic once flipped a NaN
// distance's sign bit at n = 216, d = 4 with NaN and +/-Inf cells, which
// this grid includes. At n = 1000 only the uniform columns run: tied
// columns never prune, so their sweeps are quadratic.
TEST(KnnSimdTest, TablesMatchScalarBitwise) {
  Stream s(21);
  int cases = 0;
  for (int n : kSizes) {
    for (int d = 1; d <= 9; ++d) {
      const std::vector<std::vector<Column>> sets = KindSets(d, s);
      for (std::size_t i = 0; i < sets.size(); ++i) {
        if (n >= 1000 && i != 0) continue;
        const Dataset data = MakeData(n, sets[i], s);
        for (int k : {1, 15}) ExpectSweepsMatch(data, k, &cases);
      }
    }
  }
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
  EXPECT_GT(cases, 1000);
}

// Finite values far apart enough that squared distances overflow to +Inf:
// the vector sweep runs (every value is finite) and must rank the infinite
// distances as the scalar sweep does.
TEST(KnnSimdTest, OverflowingDistancesMatchScalarBitwise) {
  Stream s(23);
  int cases = 0;
  for (int n : {9, 17, 300}) {
    Matrix m(n, 3);
    for (int p = 0; p < n; ++p) {
      for (int f = 0; f < 3; ++f) {
        m(p, f) = (s.Unit() - 0.5) * (s.Below(3) == 0 ? 1e300 : 1.0);
      }
    }
    const Dataset data(std::move(m));
    for (int k : {1, 10, 15}) ExpectSweepsMatch(data, k, &cases);
  }
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
}

// Every k around the register list's 16 entries on both sides of the
// gate: k <= 16 runs the register list, 17 the scalar sweep, and k = n - 1
// (the clamp) fills the list exactly for every n up to 17. Sizes straddle
// the 8-lane batches.
TEST(KnnSimdTest, RegisterListBoundaryMatchesScalarBitwise) {
  Stream s(25);
  int cases = 0;
  for (int n = 2; n <= 26; ++n) {
    for (int d : {1, 2, 3, 7}) {
      for (Column kind : {Column::kUniform, Column::kDuplicates}) {
        const Dataset data = MakeData(n, std::vector<Column>(d, kind), s);
        for (int k : {1, 10, 15, 16, 17, n - 1}) {
          ExpectSweepsMatch(data, k, &cases);
        }
      }
    }
  }
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
  EXPECT_GT(cases, 1000);
}

// Columns where distances tie everywhere, so only the index orders the
// list: every value equal (every distance 0), and two levels 1e300 apart
// (every distance 0 or an overflowed +Inf).
TEST(KnnSimdTest, AllTiedDistancesMatchScalarBitwise) {
  int cases = 0;
  for (int n : {2, 9, 16, 17, 40, 300}) {
    for (int d : {1, 3}) {
      Matrix equal(n, d);
      Matrix two_level(n, d);
      for (int p = 0; p < n; ++p) {
        for (int f = 0; f < d; ++f) {
          equal(p, f) = 0.75;
          two_level(p, f) = (p * 7 + f) % 3 == 0 ? 1e300 : -1e300;
        }
      }
      for (const Matrix* m : {&equal, &two_level}) {
        const Dataset data{Matrix(*m)};
        for (int k : {1, 10, 15, 16, 17}) ExpectSweepsMatch(data, k, &cases);
      }
    }
  }
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
  EXPECT_GT(cases, 100);
}

// Queries within 8 sweep positions of either end, whose batches toward
// that end hold fewer than 8 positions: points clustered at both ends of
// the first feature, so those partial batches hold the nearest neighbours,
// and sizes on both sides of a multiple of 8.
TEST(KnnSimdTest, QueriesNearSweepEndsMatchScalarBitwise) {
  Stream s(27);
  int cases = 0;
  for (int n : {3, 7, 8, 9, 15, 16, 17, 23, 24, 25, 41}) {
    for (int d : {1, 2, 4}) {
      Matrix m(n, d);
      for (int p = 0; p < n; ++p) {
        const double end = s.Below(2) == 0 ? 0.0 : 100.0;
        m(p, 0) = end + s.Unit();
        for (int f = 1; f < d; ++f) m(p, f) = s.Unit();
      }
      const Dataset data(std::move(m));
      for (int k : {1, 3, 10, 15}) ExpectSweepsMatch(data, k, &cases);
    }
  }
  if (!HostRunsAvx512()) GTEST_SKIP() << kNoAvx512;
  EXPECT_GT(cases, 100);
}

// The dispatch follows CPUID; prints the path so a CI log shows it.
TEST(KnnSimdTest, ActivePathFollowsCpuid) {
  std::printf("kernel path: %s\n", KernelPathName(ActiveKernelPath()));
  RecordProperty("kernel_path", KernelPathName(ActiveKernelPath()));
#if SUBEX_HAVE_AVX512_KERNELS
  const bool avx512 = __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512vl");
  EXPECT_EQ(ActiveKernelPath(),
            avx512 ? KernelPath::kAvx512 : KernelPath::kScalar);
#else
  EXPECT_EQ(ActiveKernelPath(), KernelPath::kScalar);
#endif
}

}  // namespace
}  // namespace subex
