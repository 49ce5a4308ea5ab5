#include "stats/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace subsum::stats {

void Series::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  // Welford: accumulate squared deviations from the running mean instead
  // of raw squares, which cancel catastrophically when |mean| >> stddev.
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Series::stddev() const noexcept {
  if (n_ < 2) return 0;
  const double var = m2_ / static_cast<double>(n_);
  return var > 0 ? std::sqrt(var) : 0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

Table& Table::rowf(const std::vector<double>& cells) {
  std::vector<std::string> out;
  out.reserve(cells.size());
  for (double c : cells) out.push_back(fmt(c));
  return row(std::move(out));
}

void Table::print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto emit = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string();
      os << c;
      if (i + 1 < widths.size()) os << std::string(widths[i] - c.size() + 2, ' ');
    }
    os << "\n";
  };
  emit(header_);
  std::vector<std::string> rule;
  rule.reserve(widths.size());
  for (size_t w : widths) rule.emplace_back(w, '-');
  emit(rule);
  for (const auto& r : rows_) emit(r);
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace subsum::stats
