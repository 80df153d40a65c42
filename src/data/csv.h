// CSV import/export for datasets — the system's external data interface
// (the paper's demo lets users load their own high-dimensional data).

#ifndef HOS_DATA_CSV_H_
#define HOS_DATA_CSV_H_

#include <string>

#include "src/common/result.h"
#include "src/data/dataset.h"

namespace hos::data {

struct CsvOptions {
  char delimiter = ',';
  /// When true the first row is treated as column names.
  bool has_header = true;
};

/// Parses CSV text into a Dataset. Every row must have the same number of
/// numeric fields; parse failures and non-finite cells ("nan", "inf") are
/// InvalidArgument naming the row/column position.
Result<Dataset> ParseCsv(const std::string& text,
                         const CsvOptions& options = {});

/// Reads a CSV file from disk.
Result<Dataset> ReadCsvFile(const std::string& path,
                            const CsvOptions& options = {});

/// Serialises a Dataset as CSV text (header included when has_header).
std::string ToCsv(const Dataset& dataset, const CsvOptions& options = {});

/// Writes a Dataset to a CSV file.
Status WriteCsvFile(const Dataset& dataset, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace hos::data

#endif  // HOS_DATA_CSV_H_
