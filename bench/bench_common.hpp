// Shared scaffolding for the table/figure bench binaries.
#pragma once

#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "issa/core/experiment.hpp"
#include "issa/core/run_context.hpp"
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
    std::vector<std::string> cells = {
        r.scheme, r.stress_time_s > 0 ? "1e8" : "0", r.workload_label};
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

  // A degraded table must never look like a clean reproduction: flag it
  // right under the data it degrades.
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

}  // namespace issa::bench
