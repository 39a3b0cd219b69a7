// Minimal CSV reader.
//
// Used to load a real UCI spambase.data file when present. Only the
// unquoted numeric subset of CSV is supported -- that is all the Spambase
// format needs.
#pragma once

#include <string>
#include <vector>

namespace pg::util {

/// Parse a CSV text blob of doubles. Every row must have the same number of
/// fields; blank lines are skipped; fields are separated by `delim`.
/// Throws std::invalid_argument on ragged rows or non-numeric fields.
[[nodiscard]] std::vector<std::vector<double>> parse_numeric_csv(
    const std::string& text, char delim = ',');

/// Load and parse a CSV file of doubles. Throws std::runtime_error if the
/// file cannot be opened.
[[nodiscard]] std::vector<std::vector<double>> load_numeric_csv(
    const std::string& path, char delim = ',');

/// True if the file exists and is readable.
[[nodiscard]] bool file_exists(const std::string& path);

}  // namespace pg::util
