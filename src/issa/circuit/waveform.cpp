#include "issa/circuit/waveform.hpp"

#include <algorithm>
#include <stdexcept>

#include "issa/util/csv.hpp"

namespace issa::circuit {

SourceWave::SourceWave(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  if (points_.empty()) throw std::invalid_argument("SourceWave: no points");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (!(points_[i].first > points_[i - 1].first)) {
      throw std::invalid_argument("SourceWave: PWL times must be strictly increasing");
    }
  }
}

SourceWave SourceWave::dc(double value) { return SourceWave({{0.0, value}}); }

SourceWave SourceWave::pwl(std::vector<std::pair<double, double>> points) {
  return SourceWave(std::move(points));
}

SourceWave SourceWave::step(double v0, double v1, double delay, double rise) {
  if (rise <= 0.0) throw std::invalid_argument("SourceWave::step: rise must be > 0");
  return SourceWave({{delay, v0}, {delay + rise, v1}});
}

double SourceWave::value(double time) const {
  if (points_.size() == 1 || time <= points_.front().first) return points_.front().second;
  if (time >= points_.back().first) return points_.back().second;
  // Binary search for the segment containing `time`.
  const auto it = std::upper_bound(points_.begin(), points_.end(), time,
                                   [](double t, const auto& p) { return t < p.first; });
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double frac = (time - lo.first) / (hi.first - lo.first);
  return lo.second + frac * (hi.second - lo.second);
}

void SourceWave::offset_by(double dv) {
  for (auto& p : points_) p.second += dv;
}

SourceWave SourceWave::negated() const {
  SourceWave w = *this;
  for (auto& p : w.points_) p.second = -p.second;
  return w;
}

std::vector<double> SourceWave::corner_times() const {
  if (points_.size() <= 1) return {};
  std::vector<double> times;
  times.reserve(points_.size());
  for (const auto& p : points_) times.push_back(p.first);
  return times;
}

void write_waveforms_csv(
    const std::string& path, const std::vector<double>& time,
    const std::vector<std::pair<std::string, const std::vector<double>*>>& waves) {
  std::vector<std::string> columns{"time_s"};
  for (const auto& [name, wave] : waves) {
    if (wave->size() != time.size()) {
      throw std::invalid_argument("write_waveforms_csv: wave '" + name + "' length mismatch");
    }
    columns.push_back(name);
  }
  util::CsvWriter csv(path, columns);
  std::vector<double> row(columns.size());
  for (std::size_t i = 0; i < time.size(); ++i) {
    row[0] = time[i];
    for (std::size_t c = 0; c < waves.size(); ++c) row[c + 1] = (*waves[c].second)[i];
    csv.add_row(row);
  }
}

}  // namespace issa::circuit
