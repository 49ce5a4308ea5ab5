// Tiny statistics and table-printing helpers used by bench/ to emit the
// paper's rows and series.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace subsum::stats {

/// Online accumulator: count / mean / min / max / stddev. Uses Welford's
/// recurrence, so the variance stays accurate for series whose mean is
/// large relative to their spread (the naive sum-of-squares form
/// catastrophically cancels there — e.g. latencies near 1e9 ns).
class Series {
 public:
  void add(double x) noexcept;

  [[nodiscard]] size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0; }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0; }
  /// Population standard deviation (divides by n, as before the Welford
  /// rewrite).
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  size_t n_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double m2_ = 0;  // sum of squared deviations from the running mean
  double min_ = 0;
  double max_ = 0;
};

/// Fixed-width text table: add a header once, then rows; print aligns
/// columns. Values are formatted with %.4g unless added as strings.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  Table& row(std::vector<std::string> cells);

  /// Convenience: formats doubles.
  Table& rowf(const std::vector<double>& cells);

  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// %.4g formatting shared with Table::rowf.
std::string fmt(double v);

}  // namespace subsum::stats
