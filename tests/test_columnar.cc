#include "data/columnar.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "data/chunked_dataset.h"
#include "data/csv.h"
#include "mem/eviction_manager.h"

namespace subex {
namespace {

// Hands out per-process unique paths, so parallel ctest workers never
// share a file, and removes each one in `TearDown`.
class TempFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : written_) std::remove(path.c_str());
  }

  std::string TempPath(const std::string& name) {
    written_.push_back(::testing::TempDir() + "subex_cols_" +
                       std::to_string(::getpid()) + "_" + name);
    return written_.back();
  }

 private:
  std::vector<std::string> written_;
};

class ColumnarTest : public TempFileTest {};
class ChunkedDatasetTest : public TempFileTest {};

Dataset MakeDataset(std::size_t rows, std::size_t cols,
                    std::vector<int> outliers = {}) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      // Deterministic, irregular values with plenty of mantissa bits so a
      // lossy round-trip would be caught.
      m(r, c) = std::sin(static_cast<double>(r * cols + c)) * 1e3 + 1.0 / 3.0;
    }
  }
  return Dataset(std::move(m), std::move(outliers));
}

TEST_F(ColumnarTest, RoundTripIsBitExact) {
  const std::string path = TempPath("roundtrip.cols");
  const Dataset original = MakeDataset(100, 3, {2, 17, 99});
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, original, /*rows_per_chunk=*/16,
                                   &error))
      << error;
  const ColumnarReadResult result = ReadColumnarDataset(path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.dataset.matrix() == original.matrix());
  EXPECT_EQ(result.dataset.outlier_indices(), original.outlier_indices());
}

TEST_F(ColumnarTest, RoundTripPreservesNanAndExtremeValues) {
  const std::string path = TempPath("nan.cols");
  Matrix m(4, 2);
  m(0, 0) = std::numeric_limits<double>::quiet_NaN();
  m(0, 1) = -0.0;
  m(1, 0) = std::numeric_limits<double>::infinity();
  m(1, 1) = -std::numeric_limits<double>::infinity();
  m(2, 0) = std::numeric_limits<double>::denorm_min();
  m(2, 1) = std::numeric_limits<double>::max();
  m(3, 0) = 1.0000000000000002;  // Quantized: differs in the last ulp.
  m(3, 1) = 1.0;
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, Dataset(m), 2, &error)) << error;
  const ColumnarReadResult result = ReadColumnarDataset(path);
  ASSERT_TRUE(result.ok) << result.error;
  const Matrix& back = result.dataset.matrix();
  EXPECT_TRUE(std::isnan(back(0, 0)));
  EXPECT_TRUE(std::signbit(back(0, 1)));
  // Everything non-NaN must be bit-identical, including the 1-ulp pair.
  for (std::size_t r = 1; r < 4; ++r) {
    for (std::size_t c = 0; c < 2; ++c) EXPECT_EQ(back(r, c), m(r, c));
  }
  EXPECT_NE(back(3, 0), back(3, 1));
}

TEST_F(ColumnarTest, EmptyDatasetRoundTrips) {
  const std::string path = TempPath("empty.cols");
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, Dataset(), 8, &error)) << error;
  const ColumnarReadResult result = ReadColumnarDataset(path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.dataset.num_points(), 0u);
  EXPECT_TRUE(result.dataset.outlier_indices().empty());
}

TEST_F(ColumnarTest, SingleRowRoundTrips) {
  const std::string path = TempPath("single.cols");
  Matrix m(1, 4);
  for (std::size_t c = 0; c < 4; ++c) m(0, c) = 0.5 * static_cast<double>(c);
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, Dataset(m, {0}), 16, &error)) << error;
  const ColumnarReadResult result = ReadColumnarDataset(path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.dataset.matrix() == m);
  EXPECT_EQ(result.dataset.outlier_indices(), (std::vector<int>{0}));
}

TEST_F(ColumnarTest, RowCountOnChunkBoundaryRoundTrips) {
  // Exactly full final block, one-past, and one-short: the classic
  // off-by-one territory of chunked offset math.
  for (const std::size_t rows : {16u, 17u, 15u, 32u}) {
    const std::string path =
        TempPath("boundary_" + std::to_string(rows) + ".cols");
    const Dataset original = MakeDataset(rows, 3);
    std::string error;
    ASSERT_TRUE(WriteColumnarDataset(path, original, /*rows_per_chunk=*/16,
                                     &error))
        << error;
    const ColumnarReadResult result = ReadColumnarDataset(path);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.dataset.matrix() == original.matrix())
        << rows << " rows";
  }
}

TEST_F(ColumnarTest, StreamingWriterMatchesWholeDatasetWriter) {
  const Dataset original = MakeDataset(50, 2, {3, 7});
  const std::string streamed = TempPath("streamed.cols");
  ColumnarWriter writer(streamed, 2, /*rows_per_chunk=*/8);
  for (std::size_t p = 0; p < original.num_points(); ++p) {
    ASSERT_TRUE(writer.AppendRow(original.matrix().Row(p)));
  }
  for (int id : original.outlier_indices()) writer.MarkOutlier(id);
  ASSERT_TRUE(writer.Finish()) << writer.error();

  const ColumnarReadResult result = ReadColumnarDataset(streamed);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.dataset.matrix() == original.matrix());
  EXPECT_EQ(result.dataset.outlier_indices(), original.outlier_indices());
}

TEST_F(ColumnarTest, TruncatedFileIsRejected) {
  const std::string path = TempPath("truncated.cols");
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, MakeDataset(64, 2), 16, &error))
      << error;
  // Chop off the last 8 bytes.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 8u);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  out.close();

  const auto open = ColumnarFile::Open(path);
  EXPECT_FALSE(open.ok);
  EXPECT_NE(open.error.find("truncated or corrupt"), std::string::npos);
}

TEST_F(ColumnarTest, BadMagicIsRejected) {
  const std::string path = TempPath("magic.cols");
  std::ofstream out(path, std::ios::binary);
  out << "not a columnar file at all, but comfortably longer than one "
         "64-byte header so only the magic check can reject it";
  out.close();
  const auto open = ColumnarFile::Open(path);
  EXPECT_FALSE(open.ok);
  EXPECT_NE(open.error.find("bad magic"), std::string::npos);
}

TEST_F(ColumnarTest, ShortHeaderIsRejected) {
  const std::string path = TempPath("short.cols");
  std::ofstream out(path, std::ios::binary);
  out << "SXCL";
  out.close();
  const auto open = ColumnarFile::Open(path);
  EXPECT_FALSE(open.ok);
  EXPECT_NE(open.error.find("truncated header"), std::string::npos);
}

TEST_F(ColumnarTest, CorruptOutlierTrailerIsRejected) {
  const std::string path = TempPath("outlier.cols");
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, MakeDataset(8, 1, {1, 5}), 4,
                                   &error))
      << error;
  // Overwrite the first trailer id with an out-of-range row.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  const std::int64_t bogus = 1'000'000;
  f.seekp(64 + 8 * 8, std::ios::beg);  // header + payload (8 rows x 1 col).
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  const auto open = ColumnarFile::Open(path);
  EXPECT_FALSE(open.ok);
  EXPECT_NE(open.error.find("outlier"), std::string::npos);
}

TEST_F(ColumnarTest, ReadChunkReturnsColumnSlices) {
  const std::string path = TempPath("chunks.cols");
  Matrix m(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    m(r, 0) = static_cast<double>(r);
    m(r, 1) = static_cast<double>(100 + r);
  }
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, Dataset(m), 4, &error)) << error;
  const auto open = ColumnarFile::Open(path);
  ASSERT_TRUE(open.ok) << open.error;
  EXPECT_EQ(open.file->num_blocks(), 3u);
  EXPECT_EQ(open.file->RowsInBlock(2), 2u);
  const auto chunk = open.file->ReadChunk(1, 2);  // Column 1, rows 8..9.
  ASSERT_NE(chunk, nullptr);
  ASSERT_EQ(chunk->rows(), 2u);
  EXPECT_EQ((*chunk)[0], 108.0);
  EXPECT_EQ((*chunk)[1], 109.0);
}

TEST_F(ColumnarTest, CsvConversionMatchesCsvReader) {
  const std::string csv = TempPath("convert.csv");
  const std::string cols = TempPath("convert.cols");
  const Dataset original = MakeDataset(40, 3, {1, 20, 39});
  std::string error;
  ASSERT_TRUE(WriteCsv(csv, original, /*label_column=*/true, &error)) << error;

  const CsvToColumnarResult converted =
      ConvertCsvToColumnar(csv, cols, /*label_column=*/true,
                           /*rows_per_chunk=*/16);
  ASSERT_TRUE(converted.ok) << converted.error;
  EXPECT_EQ(converted.num_rows, 40u);
  EXPECT_EQ(converted.num_cols, 3u);
  EXPECT_EQ(converted.num_outliers, 3u);

  // The columnar file must agree with what ReadCsv sees — CSV text is the
  // common source, so both sides quantize identically through %.17g.
  const CsvReadResult via_csv = ReadCsv(csv, /*label_column=*/true);
  ASSERT_TRUE(via_csv.ok) << via_csv.error;
  const ColumnarReadResult via_cols = ReadColumnarDataset(cols);
  ASSERT_TRUE(via_cols.ok) << via_cols.error;
  EXPECT_TRUE(via_cols.dataset.matrix() == via_csv.dataset.matrix());
  EXPECT_EQ(via_cols.dataset.outlier_indices(),
            via_csv.dataset.outlier_indices());
}

TEST_F(ColumnarTest, ConversionRejectsMalformedCsv) {
  const std::string csv = TempPath("bad.csv");
  std::ofstream out(csv);
  out << "a,b,label\n1.0,2.0,0\n1.0,oops,1\n";
  out.close();
  const CsvToColumnarResult converted =
      ConvertCsvToColumnar(csv, TempPath("bad.cols"));
  EXPECT_FALSE(converted.ok);
  EXPECT_NE(converted.error.find("non-numeric"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ChunkedDataset

TEST_F(ChunkedDatasetTest, ServesValuesAndCachesChunks) {
  const std::string path = TempPath("chunked.cols");
  const Dataset original = MakeDataset(30, 2);
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, original, 8, &error)) << error;

  EvictionManager manager(EvictionManager::Options{.budget_bytes = 1 << 20});
  ChunkedDatasetOptions options;
  options.manager = &manager;
  auto open = ChunkedDataset::Open(path, options);
  ASSERT_TRUE(open.ok) << open.error;
  ChunkedDataset& data = *open.dataset;
  EXPECT_EQ(data.num_rows(), 30u);
  EXPECT_EQ(data.num_cols(), 2u);

  {
    Pinned<ColumnChunk> chunk = data.Chunk(1, 1);  // Rows 8..15, column 1.
    ASSERT_TRUE(chunk.valid());
    for (std::size_t r = 0; r < chunk->rows(); ++r) {
      EXPECT_EQ((*chunk)[r], original.Value(8 + r, 1));
    }
  }
  // Second touch hits the resident chunk: no further load.
  { Pinned<ColumnChunk> again = data.Chunk(1, 1); }
  const ChunkedDatasetStats stats = data.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.pinned_chunks, 0u);
  EXPECT_EQ(stats.resident_chunks, 1u);
}

TEST_F(ChunkedDatasetTest, TinyBudgetEvictsUnpinnedChunks) {
  const std::string path = TempPath("evict.cols");
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, MakeDataset(1024, 4), 256, &error))
      << error;

  // Budget of ~1.5 chunks (256 rows x 8 bytes = 2 KB each): touching every
  // chunk must keep the resident set around one chunk, evicting as it goes.
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 3 << 10});
  ChunkedDatasetOptions options;
  options.manager = &manager;
  auto open = ChunkedDataset::Open(path, options);
  ASSERT_TRUE(open.ok) << open.error;
  ChunkedDataset& data = *open.dataset;

  for (std::size_t c = 0; c < data.num_cols(); ++c) {
    for (std::size_t b = 0; b < data.num_blocks(); ++b) {
      Pinned<ColumnChunk> chunk = data.Chunk(c, b);
      ASSERT_TRUE(chunk.valid());
    }
  }
  const ChunkedDatasetStats stats = data.stats();
  EXPECT_EQ(stats.loads, 16u);  // 4 columns x 4 blocks, nothing cached.
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(manager.used_bytes(), manager.budget_bytes());
  EXPECT_LE(stats.resident_chunks, 1u);
}

TEST_F(ChunkedDatasetTest, PinnedChunksSurvivePressure) {
  const std::string path = TempPath("pin.cols");
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, MakeDataset(1024, 4), 256, &error))
      << error;

  EvictionManager manager(EvictionManager::Options{.budget_bytes = 3 << 10});
  ChunkedDatasetOptions options;
  options.manager = &manager;
  auto open = ChunkedDataset::Open(path, options);
  ASSERT_TRUE(open.ok) << open.error;
  ChunkedDataset& data = *open.dataset;

  // Hold a pin while cycling every other chunk through the tiny budget: the
  // pinned chunk's data must stay valid (eviction may never touch it).
  Pinned<ColumnChunk> pinned = data.Chunk(0, 0);
  ASSERT_TRUE(pinned.valid());
  const double expected = (*pinned)[0];
  for (std::size_t c = 0; c < data.num_cols(); ++c) {
    for (std::size_t b = 0; b < data.num_blocks(); ++b) {
      if (c == 0 && b == 0) continue;
      Pinned<ColumnChunk> chunk = data.Chunk(c, b);
      ASSERT_TRUE(chunk.valid());
    }
  }
  EXPECT_EQ((*pinned)[0], expected);
  const ChunkedDatasetStats stats = data.stats();
  EXPECT_EQ(stats.pinned_chunks, 1u);
  // Pinned chunks overcommit rather than fail when the budget is too tight.
  EXPECT_EQ(manager.snapshot().reserve_failures, 0u);
  pinned.Release();
  EXPECT_EQ(data.stats().pinned_chunks, 0u);
}

TEST_F(ChunkedDatasetTest, ConcurrentReadersSingleFlightLoads) {
  const std::string path = TempPath("mt.cols");
  const Dataset original = MakeDataset(512, 3);
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path, original, 64, &error)) << error;

  EvictionManager manager(EvictionManager::Options{.budget_bytes = 1 << 20});
  ChunkedDatasetOptions options;
  options.manager = &manager;
  auto open = ChunkedDataset::Open(path, options);
  ASSERT_TRUE(open.ok) << open.error;
  ChunkedDataset& data = *open.dataset;

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t c = 0; c < data.num_cols(); ++c) {
          for (std::size_t b = 0; b < data.num_blocks(); ++b) {
            Pinned<ColumnChunk> chunk = data.Chunk(c, b);
            if (!chunk.valid()) {
              mismatches.fetch_add(1);
              continue;
            }
            const std::size_t row0 = b * data.rows_per_chunk();
            for (std::size_t r = 0; r < chunk->rows(); ++r) {
              if ((*chunk)[r] != original.Value(row0 + r, c)) {
                mismatches.fetch_add(1);
              }
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Ample budget: every chunk loaded exactly once, everything else hit.
  const ChunkedDatasetStats stats = data.stats();
  EXPECT_EQ(stats.loads, data.num_cols() * data.num_blocks());
  EXPECT_EQ(stats.evictions, 0u);
}

}  // namespace
}  // namespace subex
