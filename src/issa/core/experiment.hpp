// The paper's experiment grid as a reusable API.
//
// ExperimentRunner reproduces the evaluation of Sec. IV: offset-voltage
// distributions (mu, sigma, spec at fr = 1e-9) and mean sensing delays for
// NSSA/ISSA across workloads (Table II / Fig. 4), supply corners (Table III /
// Fig. 5), temperature corners (Table IV / Fig. 6), and delay-versus-aging
// (Fig. 7).  Bench binaries print these rows; examples and tests reuse the
// same entry points.  Each cell is built by analysis::make_condition, and
// each row carries that analysis::Condition; its pass reports itself.
#pragma once

#include <string>
#include <vector>

#include "issa/analysis/montecarlo.hpp"

namespace issa::core {

/// One row of the paper's result tables.
struct ExperimentRow {
  analysis::Condition condition;  ///< the cell: kind, supply, temperature, workload, stress
  std::string workload_label;     ///< the paper's column: "80r0", "-" (fresh), "80%" (ISSA)
  double mu_mv = 0.0;          ///< offset mean [mV]
  double sigma_mv = 0.0;       ///< offset std dev [mV]
  double spec_mv = 0.0;        ///< offset-voltage spec at fr = 1e-9 [mV]
  double delay_ps = 0.0;       ///< mean sensing delay [ps]
  std::size_t mc_iterations = 0;
  /// Samples quarantined across the cell's offset + delay sweeps.  Nonzero
  /// means the cell's statistics come from fewer than mc_iterations samples
  /// — degraded, and flagged as such in every report.
  std::size_t quarantined = 0;
  /// Samples that failed once but were recovered by the retry.
  std::size_t recovered = 0;
};

/// A (time, delay) series for Fig. 7.
struct DelayAgingSeries {
  std::string label;
  std::vector<double> times_s;
  std::vector<double> delays_ps;
  std::size_t quarantined = 0;  ///< samples quarantined across the series' cells
  std::size_t recovered = 0;    ///< samples recovered by the retry across them
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(analysis::McConfig mc = {});

  /// The paper's stress horizon.
  static constexpr double kLifetime = 1e8;  // [s]

  /// Runs one experiment cell.  `workload` is ignored for fresh (t = 0)
  /// cells, mirroring the "-" rows of the tables.
  ExperimentRow run_cell(sa::SenseAmpKind kind, const workload::Workload& workload,
                         double stress_time_s, double vdd_scale, double temperature_c);

  /// Table II / Fig. 4: workload dependency at nominal Vdd and 25 C.
  /// Rows: NSSA t=0; NSSA t=1e8 x 6 workloads; ISSA t=0; ISSA 80%; ISSA 20%.
  std::vector<ExperimentRow> table2_workload();

  /// Table III / Fig. 5: supply dependency (+/-10% Vdd) at 25 C.
  std::vector<ExperimentRow> table3_voltage();

  /// Table IV / Fig. 6: temperature dependency (75 C, 125 C) at nominal Vdd.
  std::vector<ExperimentRow> table4_temperature();

  /// Fig. 7: delay versus stress time at 125 C for NSSA-80r0, NSSA-80r0r1,
  /// and ISSA-80%.
  std::vector<DelayAgingSeries> fig7_delay_vs_aging(const std::vector<double>& times_s = {});

  const analysis::McConfig& mc() const noexcept { return mc_; }

  /// Label the paper uses for a row's workload column: "-" when fresh, the
  /// activation rate ("80%") for an input-switching kind, else the workload.
  static std::string workload_label(sa::SenseAmpKind kind, const workload::Workload& workload,
                                    double stress_time_s);

 private:
  /// One supply/temperature corner of Tables III and IV.
  struct Corner {
    double vdd_scale;
    double temperature_c;
  };
  /// The grid Tables III and IV share: NSSA fresh, NSSA aged under each 80%
  /// workload, ISSA fresh and ISSA 80% aged, each at every corner in turn.
  std::vector<ExperimentRow> corner_sweep(const std::vector<Corner>& corners);

  analysis::McConfig mc_;
};

}  // namespace issa::core
