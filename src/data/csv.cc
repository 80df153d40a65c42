#include "src/data/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace hos::data {
namespace {

std::vector<std::string> SplitLine(const std::string& line, char delimiter) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == delimiter) {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

Result<double> ParseDouble(const std::string& s, size_t row, size_t col) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  // Trim surrounding spaces.
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  while (end > begin && (*(end - 1) == ' ' || *(end - 1) == '\t')) --end;
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || begin == end) {
    return Status::InvalidArgument("cannot parse '" + s + "' as number at row " +
                                   std::to_string(row + 1) + ", column " +
                                   std::to_string(col + 1));
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("non-finite value '" + s + "' at row " +
                                   std::to_string(row + 1) + ", column " +
                                   std::to_string(col + 1));
  }
  return value;
}

}  // namespace

Result<Dataset> ParseCsv(const std::string& text, const CsvOptions& options) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
  size_t line_no = 0;
  int num_dims = -1;

  while (std::getline(in, line)) {
    if (line.empty() || line == "\r") {
      ++line_no;
      continue;
    }
    auto fields = SplitLine(line, options.delimiter);
    if (line_no == 0 && options.has_header) {
      header = std::move(fields);
      num_dims = static_cast<int>(header.size());
      ++line_no;
      continue;
    }
    if (num_dims < 0) num_dims = static_cast<int>(fields.size());
    if (static_cast<int>(fields.size()) != num_dims) {
      return Status::InvalidArgument(
          "row " + std::to_string(line_no + 1) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(num_dims));
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      HOS_ASSIGN_OR_RETURN(double v, ParseDouble(fields[c], line_no, c));
      row.push_back(v);
    }
    rows.push_back(std::move(row));
    ++line_no;
  }
  if (num_dims <= 0) {
    return Status::InvalidArgument("CSV contains no data");
  }
  HOS_ASSIGN_OR_RETURN(Dataset dataset, Dataset::FromRows(rows, num_dims));
  if (!header.empty()) {
    HOS_RETURN_IF_ERROR(dataset.SetColumnNames(header));
  }
  return dataset;
}

Result<Dataset> ReadCsvFile(const std::string& path,
                            const CsvOptions& options) {
  std::ifstream file(path);
  if (!file) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsv(buffer.str(), options);
}

std::string ToCsv(const Dataset& dataset, const CsvOptions& options) {
  std::ostringstream out;
  out.precision(17);
  if (options.has_header) {
    const auto& names = dataset.column_names();
    for (size_t j = 0; j < names.size(); ++j) {
      if (j > 0) out << options.delimiter;
      out << names[j];
    }
    out << '\n';
  }
  for (PointId i = 0; i < dataset.size(); ++i) {
    auto row = dataset.Row(i);
    for (size_t j = 0; j < row.size(); ++j) {
      if (j > 0) out << options.delimiter;
      out << row[j];
    }
    out << '\n';
  }
  return out.str();
}

Status WriteCsvFile(const Dataset& dataset, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream file(path);
  if (!file) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  file << ToCsv(dataset, options);
  if (!file) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace hos::data
