// Minimal fixed-width table printer for the paper-figure tables.
//
// `mpiv_stat --table` renders the rows/series the paper reports through
// this; it keeps those tables aligned and greppable without pulling in a
// formatting dependency.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

namespace mpiv::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// The aligned table, one '\n'-terminated line per row.
  std::string str() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    std::string out;
    auto line = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& s = c < cells.size() ? cells[c] : empty_;
        out += "| ";
        out += s;
        out.append(width[c] + 1 - s.size(), ' ');
      }
      out += "|\n";
    };
    line(headers_);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      out += '|';
      out.append(width[c] + 3, '-');
    }
    out += "|\n";
    for (const auto& row : rows_) line(row);
    return out;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::string empty_;
};

/// printf-style helper producing a std::string cell.
inline std::string cell(const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

inline std::string cell(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return std::string(buf);
}

}  // namespace mpiv::util
