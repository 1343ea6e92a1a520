// Tests for TableStorage: loading, per-column compression with real
// round-trips, layout-dependent scan volumes, decode-cost accounting, and
// statistics (exact NDV and the per-table statistics cache).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_set>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "power/energy_meter.h"
#include "sim/clock.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::storage {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

Schema TestSchema() {
  return Schema({
      Column{"id", DataType::kInt64, 8},
      Column{"price", DataType::kDouble, 8},
      Column{"status", DataType::kString, 4},
      Column{"day", DataType::kDate, 8},
  });
}

std::vector<ColumnData> TestRows(int n) {
  std::vector<ColumnData> cols(4);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kDouble;
  cols[2].type = DataType::kString;
  cols[3].type = DataType::kDate;
  for (int i = 0; i < n; ++i) {
    cols[0].i64.push_back(i + 1);
    cols[1].f64.push_back(i * 1.5);
    cols[2].str.push_back(i % 2 ? "ok" : "bad");
    cols[3].i64.push_back(1000 + i % 30);
  }
  return cols;
}

class TableStorageTest : public ::testing::Test {
 protected:
  TableStorageTest()
      : meter_(&clock_), ssd_("s0", power::SsdSpec{}, &meter_) {}

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  SsdDevice ssd_;
};

TEST_F(TableStorageTest, AppendAndRead) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(100)).ok());
  EXPECT_EQ(table.row_count(), 100u);
  auto col = table.ReadColumn(0);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->i64.size(), 100u);
  EXPECT_EQ(col->i64[41], 42);
}

TEST_F(TableStorageTest, AppendAccumulates) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(50)).ok());
  ASSERT_TRUE(table.Append(TestRows(30)).ok());
  EXPECT_EQ(table.row_count(), 80u);
}

TEST_F(TableStorageTest, AppendRejectsWrongArity) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  std::vector<ColumnData> three(3);
  EXPECT_EQ(table.Append(three).code(), StatusCode::kInvalidArgument);
}

TEST_F(TableStorageTest, AppendRejectsTypeMismatch) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  auto rows = TestRows(10);
  rows[0].type = DataType::kDouble;
  EXPECT_EQ(table.Append(rows).code(), StatusCode::kInvalidArgument);
}

TEST_F(TableStorageTest, AppendRejectsRaggedColumns) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  auto rows = TestRows(10);
  rows[0].i64.pop_back();
  EXPECT_EQ(table.Append(rows).code(), StatusCode::kInvalidArgument);
}

TEST_F(TableStorageTest, CompressionRoundTripsThroughCodec) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(500)).ok());
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  ASSERT_TRUE(table.SetCompression("status",
                                   CompressionKind::kDictionary).ok());
  ASSERT_TRUE(table.SetCompression("day", CompressionKind::kFor).ok());

  auto id = table.ReadColumn(0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id->i64, table.RawColumn(0).i64);
  auto status = table.ReadColumn(2);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->str, table.RawColumn(2).str);
  auto day = table.ReadColumn(3);
  ASSERT_TRUE(day.ok());
  EXPECT_EQ(day->i64, table.RawColumn(3).i64);
}

TEST_F(TableStorageTest, CompressionShrinksFootprint) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(2000)).ok());
  const uint64_t before = table.column_layout(0).encoded_bytes;
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  const uint64_t after = table.column_layout(0).encoded_bytes;
  EXPECT_LT(after, before / 3);
  EXPECT_LT(table.column_layout(0).Ratio(), 0.35);
}

TEST_F(TableStorageTest, BadCompressionRequestsRejected) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(10)).ok());
  EXPECT_FALSE(table.SetCompression("status", CompressionKind::kRle).ok());
  EXPECT_FALSE(table.SetCompression("price", CompressionKind::kDelta).ok());
  EXPECT_FALSE(table.SetCompression("nope", CompressionKind::kRle).ok());
  // Failed attempts must not corrupt the previous state.
  auto status = table.ReadColumn(2);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->str, table.RawColumn(2).str);
}

TEST_F(TableStorageTest, ColumnLayoutScanReadsOnlyProjection) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(1000)).ok());
  const uint64_t one = table.ScanBytes({0});
  const uint64_t two = table.ScanBytes({0, 1});
  const uint64_t all = table.ScanBytes({0, 1, 2, 3});
  EXPECT_LT(one, two);
  EXPECT_LT(two, all);
  EXPECT_EQ(one, 8000u);
}

TEST_F(TableStorageTest, RowLayoutScanReadsEverything) {
  TableStorage table(1, TestSchema(), TableLayout::kRow, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(1000)).ok());
  EXPECT_EQ(table.ScanBytes({0}), table.ScanBytes({0, 1, 2, 3}));
}

TEST_F(TableStorageTest, ScanBytesDeduplicatesAndIgnoresBadIndexes) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(100)).ok());
  EXPECT_EQ(table.ScanBytes({0, 0, 0}), table.ScanBytes({0}));
  EXPECT_EQ(table.ScanBytes({99}), 0u);
}

TEST_F(TableStorageTest, DecodeInstructionsGrowWithCompression) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(1000)).ok());
  const double before = table.DecodeInstructions({0});
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  const double after = table.DecodeInstructions({0});
  EXPECT_GT(after, before * 2);  // delta decode = 4 instr vs 1 touch
}

TEST_F(TableStorageTest, AnalyzeComputesStats) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(100)).ok());
  catalog::TableStats stats;
  ASSERT_TRUE(table.AnalyzeInto(&stats).ok());
  EXPECT_EQ(stats.row_count, 100u);
  EXPECT_EQ(stats.columns[0].min_i64, 1);
  EXPECT_EQ(stats.columns[0].max_i64, 100);
  EXPECT_EQ(stats.columns[0].distinct_values, 100u);
  EXPECT_EQ(stats.columns[2].distinct_values, 2u);   // "ok"/"bad"
  EXPECT_EQ(stats.columns[3].distinct_values, 30u);  // 30 distinct days
  EXPECT_DOUBLE_EQ(stats.columns[1].max_f64, 99 * 1.5);
}

// --- Statistics cache ---------------------------------------------------------

// Field-for-field equality; doubles compared by bit pattern.
void ExpectStatsIdentical(const catalog::TableStats& a,
                          const catalog::TableStats& b) {
  EXPECT_EQ(a.row_count, b.row_count);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t i = 0; i < a.columns.size(); ++i) {
    SCOPED_TRACE("column " + std::to_string(i));
    const catalog::ColumnStats& x = a.columns[i];
    const catalog::ColumnStats& y = b.columns[i];
    EXPECT_EQ(x.min_i64, y.min_i64);
    EXPECT_EQ(x.max_i64, y.max_i64);
    EXPECT_EQ(std::bit_cast<uint64_t>(x.min_f64),
              std::bit_cast<uint64_t>(y.min_f64));
    EXPECT_EQ(std::bit_cast<uint64_t>(x.max_f64),
              std::bit_cast<uint64_t>(y.max_f64));
    EXPECT_EQ(x.distinct_values, y.distinct_values);
    EXPECT_EQ(x.null_count, y.null_count);
  }
}

TEST_F(TableStorageTest, CachedStatsEqualFreshAnalyzeAndAreShared) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(500)).ok());
  auto cached = table.CachedStats();
  ASSERT_TRUE(cached.ok());
  catalog::TableStats fresh;
  ASSERT_TRUE(table.AnalyzeInto(&fresh).ok());
  ExpectStatsIdentical(**cached, fresh);
  // A second call returns the same snapshot, not a recomputation.
  auto again = table.CachedStats();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), cached->get());
}

TEST_F(TableStorageTest, AppendInvalidatesCachedStats) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(100)).ok());
  auto before = table.CachedStats();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(table.Append(TestRows(300)).ok());
  auto after = table.CachedStats();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->get(), before->get());
  // Row count, min/max and NDV all moved.
  EXPECT_EQ((*before)->row_count, 100u);
  EXPECT_EQ((*after)->row_count, 400u);
  EXPECT_EQ((*before)->columns[0].max_i64, 100);
  EXPECT_EQ((*after)->columns[0].max_i64, 300);
  EXPECT_EQ((*before)->columns[0].distinct_values, 100u);
  EXPECT_EQ((*after)->columns[0].distinct_values, 300u);
  EXPECT_DOUBLE_EQ((*after)->columns[1].max_f64, 299 * 1.5);
  catalog::TableStats fresh;
  ASSERT_TRUE(table.AnalyzeInto(&fresh).ok());
  ExpectStatsIdentical(**after, fresh);
}

TEST_F(TableStorageTest, RejectedAppendKeepsCachedStats) {
  // Argument checks run before any column is touched, so a rejected Append
  // leaves the values, and therefore the cache, as they were. (Append drops
  // the cache before its first mutation, ahead of the re-encode loop.)
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(100)).ok());
  auto before = table.CachedStats();
  ASSERT_TRUE(before.ok());
  auto ragged = TestRows(10);
  ragged[3].i64.pop_back();
  EXPECT_FALSE(table.Append(ragged).ok());
  auto after = table.CachedStats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->get(), before->get());
  catalog::TableStats fresh;
  ASSERT_TRUE(table.AnalyzeInto(&fresh).ok());
  ExpectStatsIdentical(**after, fresh);
}

TEST_F(TableStorageTest, LayoutChangesKeepCachedStats) {
  // SetCompression, BuildZoneMaps and Rebind change how values are stored,
  // never the values, so the cached snapshot stays valid and equal.
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(1000)).ok());
  auto before = table.CachedStats();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  ASSERT_TRUE(
      table.SetCompression("status", CompressionKind::kDictionary).ok());
  ASSERT_TRUE(table.SetCompression("day", CompressionKind::kRle).ok());
  ASSERT_TRUE(table.BuildZoneMaps(128).ok());
  SsdDevice other("s1", power::SsdSpec{}, &meter_);
  table.Rebind(&other);
  auto after = table.CachedStats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->get(), before->get());
  catalog::TableStats fresh;
  ASSERT_TRUE(table.AnalyzeInto(&fresh).ok());
  ExpectStatsIdentical(**after, fresh);
}

// --- Exact NDV vs. a hash-set reference ----------------------------------------

// The NDV the planner has always priced with: std::unordered_set
// semantics (-0.0 == 0.0 is one value; NaN != NaN, so every NaN is one).
template <typename T>
uint64_t HashSetNdv(const std::vector<T>& lane) {
  return std::unordered_set<T>(lane.begin(), lane.end()).size();
}

int64_t DrawInt(Rng& rng) {
  switch (rng.Uniform(0, 5)) {
    case 0:
      return INT64_MIN;
    case 1:
      return INT64_MAX;
    default:
      return rng.Uniform(-20, 20);
  }
}

double DrawDouble(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (rng.Uniform(0, 9)) {
    case 0:
      return kInf;
    case 1:
      return -kInf;
    case 2:
      return 0.0;
    case 3:
      return -0.0;
    case 4:
      return nan;
    case 5:
      return -nan;
    default:
      return static_cast<double>(rng.Uniform(-10, 10)) * 0.5;
  }
}

// Analyzes a two-column (int64, double) table holding `ints` and `doubles`
// and checks both NDVs against the hash-set reference.
void ExpectNdvMatchesHashSet(StorageDevice* device,
                             const std::vector<int64_t>& ints,
                             const std::vector<double>& doubles) {
  ASSERT_EQ(ints.size(), doubles.size());
  TableStorage table(1,
                     Schema({Column{"i", DataType::kInt64, 8},
                             Column{"d", DataType::kDouble, 8}}),
                     TableLayout::kColumn, device);
  std::vector<ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[0].i64 = ints;
  cols[1].type = DataType::kDouble;
  cols[1].f64 = doubles;
  ASSERT_TRUE(table.Append(cols).ok());
  catalog::TableStats stats;
  ASSERT_TRUE(table.AnalyzeInto(&stats).ok());
  EXPECT_EQ(stats.columns[0].distinct_values, HashSetNdv(ints));
  EXPECT_EQ(stats.columns[1].distinct_values, HashSetNdv(doubles));
}

TEST_F(TableStorageTest, NdvMatchesHashSetOnEdgeLanes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Empty lanes.
  ExpectNdvMatchesHashSet(&ssd_, {}, {});
  // All-equal lanes, including all -0.0 / 0.0 and all NaN.
  ExpectNdvMatchesHashSet(&ssd_, {7, 7, 7, 7}, {2.5, 2.5, 2.5, 2.5});
  ExpectNdvMatchesHashSet(&ssd_, {0, 0, 0, 0}, {-0.0, 0.0, -0.0, 0.0});
  ExpectNdvMatchesHashSet(&ssd_, {1, 1, 1}, {nan, nan, -nan});
  // Sorted lanes with the extremes; -0.0 and 0.0 adjacent in sorted order.
  ExpectNdvMatchesHashSet(&ssd_, {INT64_MIN, -1, 0, 0, 1, INT64_MAX},
                          {-kInf, -1.0, -0.0, 0.0, 1.0, kInf});
  // NaNs break sortedness: [1, NaN, 0, 1] passes a naive is_sorted check.
  ExpectNdvMatchesHashSet(&ssd_, {3, 2, 1, 0}, {1.0, nan, 0.0, 1.0});
  // Unsorted lanes with duplicates, the extremes and several NaNs.
  ExpectNdvMatchesHashSet(&ssd_,
                          {INT64_MAX, 5, INT64_MIN, 5, INT64_MAX, -3, 0},
                          {nan, kInf, 0.0, -kInf, -0.0, nan, kInf});
}

TEST_F(TableStorageTest, NdvMatchesHashSetOnSeededRandomLanes) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto rows = static_cast<size_t>(rng.Uniform(0, 300));
    std::vector<int64_t> ints(rows);
    std::vector<double> doubles(rows);
    for (size_t r = 0; r < rows; ++r) {
      ints[r] = DrawInt(rng);
      doubles[r] = DrawDouble(rng);
    }
    if (seed % 3 == 0) {
      // Sorted lanes take the run-count path. NaNs go last, where a sorted
      // prefix must not make the whole lane pass for sorted; every sixth
      // lane has its NaNs replaced so the double lane is sorted too.
      const auto is_nan = [](double v) { return std::isnan(v); };
      if (seed % 6 == 0) {
        std::replace_if(doubles.begin(), doubles.end(), is_nan, 1.5);
      }
      std::sort(ints.begin(), ints.end());
      const auto nans = std::stable_partition(
          doubles.begin(), doubles.end(), std::not_fn(is_nan));
      std::sort(doubles.begin(), nans);
    }
    ExpectNdvMatchesHashSet(&ssd_, ints, doubles);
  }
}

TEST_F(TableStorageTest, TotalBytesTracksCompression) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  ASSERT_TRUE(table.Append(TestRows(2000)).ok());
  const uint64_t before = table.TotalBytes();
  ASSERT_TRUE(table.SetCompression("id", CompressionKind::kDelta).ok());
  ASSERT_TRUE(
      table.SetCompression("status", CompressionKind::kDictionary).ok());
  EXPECT_LT(table.TotalBytes(), before);
}

TEST_F(TableStorageTest, RebindChangesDevice) {
  TableStorage table(1, TestSchema(), TableLayout::kColumn, &ssd_);
  SsdDevice other("s1", power::SsdSpec{}, &meter_);
  EXPECT_EQ(table.device(), &ssd_);
  table.Rebind(&other);
  EXPECT_EQ(table.device(), &other);
}

// --- Catalog ----------------------------------------------------------------

TEST(Catalog, CreateLookupDrop) {
  catalog::Catalog cat;
  auto id = cat.CreateTable("t", TestSchema());
  ASSERT_TRUE(id.ok());
  auto entry = cat.GetTable("t");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->name, "t");
  EXPECT_EQ((*entry)->schema.num_columns(), 4);
  ASSERT_TRUE(cat.GetTable(*id).ok());
  ASSERT_TRUE(cat.DropTable("t").ok());
  EXPECT_FALSE(cat.GetTable("t").ok());
}

TEST(Catalog, DuplicateNameRejected) {
  catalog::Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", TestSchema()).ok());
  EXPECT_EQ(cat.CreateTable("t", TestSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(Catalog, UpdateStatsRoundTrips) {
  catalog::Catalog cat;
  auto id = cat.CreateTable("t", TestSchema());
  catalog::TableStats stats;
  stats.row_count = 77;
  stats.columns.resize(4);
  ASSERT_TRUE(cat.UpdateStats(*id, stats).ok());
  EXPECT_EQ((*cat.GetTable("t"))->stats.row_count, 77u);
}

TEST(Schema, ProjectByNameAndIndex) {
  const Schema s = TestSchema();
  auto proj = s.Project({"status", "id"});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->num_columns(), 2);
  EXPECT_EQ(proj->column(0).name, "status");
  EXPECT_FALSE(s.Project({"missing"}).ok());
  const Schema byidx = s.ProjectIndexes({3, 0});
  EXPECT_EQ(byidx.column(0).name, "day");
}

TEST(Schema, RowWidthSumsTypeWidths) {
  EXPECT_EQ(TestSchema().RowWidthBytes(), 8 + 8 + 4 + 8);
}

TEST(Schema, FindColumn) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.FindColumn("price"), 1);
  EXPECT_EQ(s.FindColumn("nope"), -1);
}

}  // namespace
}  // namespace ecodb::storage
