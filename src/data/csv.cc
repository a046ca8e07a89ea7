#include "data/csv.h"

#include "common/json.h"
#include "common/string_util.h"

namespace treewm::data {

Result<Dataset> ParseCsv(const std::string& text, const CsvOptions& options) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  Dataset dataset;
  bool initialized = false;
  size_t line_no = 0;
  std::vector<float> row;
  for (const std::string& raw_line : lines) {
    ++line_no;
    std::string_view line = StrTrim(raw_line);
    if (line.empty()) continue;
    if (options.has_header && line_no == 1) continue;
    std::vector<std::string> fields = StrSplit(line, ',');
    if (fields.size() < 2) {
      return Status::ParseError(
          StrFormat("line %zu: need at least one feature and a label", line_no));
    }
    size_t label_col = options.label_column < 0
                           ? fields.size() - 1
                           : static_cast<size_t>(options.label_column);
    if (label_col >= fields.size()) {
      return Status::ParseError(StrFormat("line %zu: label column out of range", line_no));
    }
    if (!initialized) {
      dataset = Dataset(fields.size() - 1);
      initialized = true;
    }
    row.clear();
    int label = 0;
    for (size_t i = 0; i < fields.size(); ++i) {
      double value;
      if (!ParseDouble(fields[i], &value)) {
        return Status::ParseError(StrFormat("line %zu: bad number '%s'", line_no,
                                            fields[i].c_str()));
      }
      if (i == label_col) {
        // Exactly -1, 0 or 1: nothing is rounded or narrowed into a label.
        if (value != 1.0 && value != 0.0 && value != -1.0) {
          return Status::ParseError(StrFormat("line %zu: label '%s' not in {+1,-1,0,1}",
                                              line_no, fields[i].c_str()));
        }
        label = value == 1.0 ? kPositive : kNegative;  // 0 maps to -1
      } else {
        row.push_back(static_cast<float>(value));
      }
    }
    TREEWM_RETURN_IF_ERROR(dataset.AddRow(row, label));
  }
  if (!initialized) return Status::ParseError("empty CSV input");
  return dataset;
}

Result<Dataset> LoadCsv(const std::string& path, const CsvOptions& options) {
  TREEWM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseCsv(text, options);
}

}  // namespace treewm::data
