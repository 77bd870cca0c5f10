// Guardbanding versus run-time mitigation (the paper's framing, Sec. I and
// V): a guardbanded design provisions bitline swing for the *worst-case*
// corner and workload over the whole lifetime; the ISSA mitigates at run
// time, so the design only provisions for its (much flatter) aged spec.
//
// This module quantifies that comparison: given the aged specs of both
// schemes at a corner, it reports the margin each design must build in, the
// read-time cost of that margin through the issa/mem read path, and the
// lifetime extension interpretation (how long the NSSA takes to reach the
// spec the ISSA only reaches at end of life).
#pragma once

#include "issa/analysis/montecarlo.hpp"

namespace issa::core {

struct GuardbandComparison {
  double corner_temperature_c = 0.0;
  double nssa_fresh_spec = 0.0;   ///< [V] t = 0 spec at the corner
  double nssa_aged_spec = 0.0;    ///< [V] worst-workload spec at end of life
  double issa_aged_spec = 0.0;    ///< [V] ISSA spec at end of life
  double nssa_read_time = 0.0;    ///< [s] read time with the guardbanded swing
  double issa_read_time = 0.0;    ///< [s] read time with the mitigated swing
  double fresh_read_time = 0.0;   ///< [s] read time a fresh design would enjoy

  /// Extra swing the guardbanded design carries versus the mitigated one.
  double margin_saved() const { return nssa_aged_spec - issa_aged_spec; }
  /// Fraction of the guardband the mitigation removes.
  double margin_saved_fraction() const {
    const double guardband = nssa_aged_spec - nssa_fresh_spec;
    return guardband > 0.0 ? margin_saved() / guardband : 0.0;
  }
  /// Read-speed gain of the mitigated memory at end of life.
  double speedup() const { return nssa_read_time / issa_read_time; }
};

/// Runs the comparison at one corner: measures both schemes' offset
/// distributions fresh and aged (worst unbalanced workload 80r0, the paper's
/// 1e8 s lifetime) and routes the specs through the default column read path
/// (mem::ReadPathParams{}).
GuardbandComparison compare_guardband_vs_mitigation(double temperature_c,
                                                    const analysis::McConfig& mc);

/// Lifetime-extension view: earliest stress time at which the NSSA's 80r0
/// spec exceeds the ISSA's end-of-life spec (bisection over the aging model;
/// returns the 1e8 s lifetime when it never does — i.e. the NSSA survives the
/// whole lifetime inside the mitigated budget).
double nssa_time_to_reach_issa_spec(double temperature_c, const analysis::McConfig& mc);

}  // namespace issa::core
