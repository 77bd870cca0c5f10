// Shared scaffolding for the table/figure bench binaries.
#pragma once

#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "issa/core/experiment.hpp"
#include "issa/core/run_context.hpp"
#include "issa/util/csv.hpp"
#include "issa/util/table.hpp"

namespace issa::bench {

/// Paper reference values for one experiment row (mV / mV / mV / ps).
struct PaperRow {
  double mu, sigma, spec, delay;
};

/// Prints one reproduced table with the paper's values interleaved, in the
/// layout of the paper's Tables II-IV.
inline void print_rows_with_reference(const std::string& title,
                                      const std::vector<std::string>& extra_headers,
                                      const std::vector<core::ExperimentRow>& rows,
                                      const std::vector<std::vector<std::string>>& extra_cells,
                                      const std::vector<std::optional<PaperRow>>& paper) {
  if (rows.size() != extra_cells.size() || rows.size() != paper.size()) {
    throw std::logic_error("print_rows_with_reference: row/reference count mismatch");
  }
  std::cout << "### " << title << "\n\n";
  std::vector<std::string> headers = {"Scheme", "Time(s)", "Workload"};
  headers.insert(headers.end(), extra_headers.begin(), extra_headers.end());
  for (const char* h : {"mu(mV)", "sigma(mV)", "spec(mV)", "delay(ps)", "paper mu", "paper sigma",
                        "paper spec", "paper delay"}) {
    headers.emplace_back(h);
  }
  util::AsciiTable table(std::move(headers));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::vector<std::string> cells = {sa::kind_name(r.condition.kind),
                                      r.condition.aged() ? "1e8" : "0", r.workload_label};
    cells.insert(cells.end(), extra_cells[i].begin(), extra_cells[i].end());
    cells.push_back(util::AsciiTable::num(r.mu_mv, 2));
    cells.push_back(util::AsciiTable::num(r.sigma_mv, 1));
    cells.push_back(util::AsciiTable::num(r.spec_mv, 1));
    cells.push_back(util::AsciiTable::num(r.delay_ps, 1));
    if (paper[i]) {
      cells.push_back(util::AsciiTable::num(paper[i]->mu, 2));
      cells.push_back(util::AsciiTable::num(paper[i]->sigma, 1));
      cells.push_back(util::AsciiTable::num(paper[i]->spec, 1));
      cells.push_back(util::AsciiTable::num(paper[i]->delay, 1));
    } else {
      for (int k = 0; k < 4; ++k) cells.emplace_back("-");
    }
    table.add_row(std::move(cells));
  }
  std::cout << table << "\n";
}

/// Flags a degraded run right under its table, so that it never looks like a
/// clean reproduction.  `rows`: ExperimentRows or DelayAgingSeries.
template <typename Rows>
void print_degraded_footer(const Rows& rows) {
  std::size_t quarantined = 0;
  std::size_t recovered = 0;
  for (const auto& r : rows) {
    quarantined += r.quarantined;
    recovered += r.recovered;
  }
  if (quarantined > 0 || recovered > 0) {
    std::cout << "!!! DEGRADED RUN: " << quarantined << " quarantined sample(s), " << recovered
              << " recovered by retry; statistics cover valid samples only\n\n";
  }
}

/// Writes `rows` to the CSV file at `path` and says so on stdout.  Columns:
/// scheme, time_s, workload, then `extra_name` holding the `extra` field of
/// each row's SA config when one is given (Table III's vdd, Table IV's
/// temp_c), then mu_mv, sigma_mv, spec_mv, delay_ps.
inline void write_rows_csv(const std::string& path, const std::vector<core::ExperimentRow>& rows,
                           const char* extra_name = nullptr,
                           double sa::SenseAmpConfig::*extra = nullptr) {
  std::vector<std::string> columns = {"scheme", "time_s", "workload"};
  if (extra != nullptr) columns.emplace_back(extra_name);
  columns.insert(columns.end(), {"mu_mv", "sigma_mv", "spec_mv", "delay_ps"});
  util::CsvWriter csv(path, std::move(columns));
  for (const auto& r : rows) {
    std::vector<std::string> cells = {sa::kind_name(r.condition.kind),
                                      std::to_string(r.condition.stress_time_s),
                                      r.workload_label};
    if (extra != nullptr) cells.push_back(std::to_string(r.condition.config.*extra));
    for (const double v : {r.mu_mv, r.sigma_mv, r.spec_mv, r.delay_ps}) {
      cells.push_back(std::to_string(v));
    }
    csv.add_row(cells);
  }
  std::cout << "wrote " << path << "\n";
}

}  // namespace issa::bench
