#include "src/data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace hos::data {
namespace {

TEST(CsvTest, ParseWithHeader) {
  auto result = ParseCsv("x,y\n1.5,2\n3,4.25\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& ds = *result;
  EXPECT_EQ(ds.num_dims(), 2);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.column_names(), (std::vector<std::string>{"x", "y"}));
  EXPECT_DOUBLE_EQ(ds.At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(ds.At(1, 1), 4.25);
}

TEST(CsvTest, ParseWithoutHeader) {
  CsvOptions options;
  options.has_header = false;
  auto result = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(result->column_names()[0], "dim1");
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto result = ParseCsv("a;b\n1;2\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 1), 2.0);
}

TEST(CsvTest, SkipsBlankLines) {
  auto result = ParseCsv("x,y\n1,2\n\n3,4\n\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(CsvTest, HandlesCrLf) {
  auto result = ParseCsv("x,y\r\n1,2\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 0), 1.0);
}

TEST(CsvTest, TrimsSpacesAroundNumbers) {
  auto result = ParseCsv("x,y\n 1 , 2 \n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 1), 2.0);
}

TEST(CsvTest, RejectsRaggedRows) {
  auto result = ParseCsv("x,y\n1,2\n3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(CsvTest, RejectsNonNumeric) {
  auto result = ParseCsv("x,y\n1,two\n");
  ASSERT_FALSE(result.ok());
  // Error message pinpoints the cell.
  EXPECT_NE(result.status().message().find("row 2"), std::string::npos);
}

TEST(CsvTest, RejectsNonFiniteCells) {
  // from_chars accepts these spellings; a dataset must not.
  for (const char* cell : {"nan", "inf", "-inf", "infinity", "NaN"}) {
    auto result = ParseCsv(std::string("x,y\n1,2\n3,") + cell + "\n");
    ASSERT_FALSE(result.ok()) << cell;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << cell;
    EXPECT_NE(result.status().message().find("row 3, column 2"),
              std::string::npos)
        << result.status().message();
  }
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, HeaderOnlyYieldsEmptyDataset) {
  auto result = ParseCsv("x,y\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_dims(), 2);
  EXPECT_TRUE(result->empty());
}

TEST(CsvTest, RoundTripThroughText) {
  Dataset ds(2);
  ASSERT_TRUE(ds.SetColumnNames({"alpha", "beta"}).ok());
  ds.Append(std::vector<double>{0.125, -3.5});
  ds.Append(std::vector<double>{7.0, 0.0});
  auto parsed = ParseCsv(ToCsv(ds));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), ds.size());
  EXPECT_EQ(parsed->column_names(), ds.column_names());
  for (PointId i = 0; i < ds.size(); ++i) {
    for (int j = 0; j < ds.num_dims(); ++j) {
      EXPECT_DOUBLE_EQ(parsed->At(i, j), ds.At(i, j));
    }
  }
}

TEST(CsvTest, HeaderIsFirstNonEmptyLine) {
  // Blank lines before the header must not demote it to a data row.
  auto result = ParseCsv("\n\r\nx,y\n1,2\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->column_names(), (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(result->size(), 1u);
  EXPECT_DOUBLE_EQ(result->At(0, 1), 2.0);
}

TEST(CsvTest, ToCsvSkipsDeadRowsIncludingReclaimedChunks) {
  // 600 rows span three storage chunks; deleting the first 512 and
  // sealing lets the first two chunks be freed. Export must write only
  // the 88 survivors (renumbered 0..87) and never read a freed row.
  Dataset ds(2);
  for (size_t i = 0; i < 600; ++i) {
    ds.Append(std::vector<double>{static_cast<double>(i), 0.5});
  }
  std::vector<PointId> dead;
  for (PointId i = 0; i < 512; ++i) dead.push_back(i);
  ASSERT_TRUE(ds.DeleteRows(dead).ok());
  ds.SealBase();
  ASSERT_EQ(ds.ReclaimDeadChunks(), 2u);

  auto parsed = ParseCsv(ToCsv(ds));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 88u);
  for (PointId i = 0; i < parsed->size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed->At(i, 0), static_cast<double>(512 + i));
  }
}

TEST(CsvTest, FileRoundTrip) {
  Dataset ds(1);
  ds.Append(std::vector<double>{42.0});
  std::string path =
      (std::filesystem::temp_directory_path() / "hos_csv_test.csv").string();
  ASSERT_TRUE(WriteCsvFile(ds, path).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->At(0, 0), 42.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto result = ReadCsvFile("/nonexistent/definitely/not/here.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

}  // namespace
}  // namespace hos::data
