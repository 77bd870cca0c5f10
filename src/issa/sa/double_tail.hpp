// Double-tail latch-type sense amplifier (Schinkel et al., ISSCC 2007 —
// the paper's reference [23]) and its input-switching variant.
//
// The paper notes the ISSA scheme "can be applied to other types of SAs,
// such as ... double-tail latch-type SA"; this module substantiates that
// claim.  Topology (two stages, separate tails):
//
//   input stage:  NMOS input pair (gates = BL / BLBar) over a clocked NMOS
//                 tail; drains Di / DiBar precharged high by PMOS devices
//                 while SAenable is low.
//   latch stage:  cross-coupled inverters on L / LBar with a PMOS tail
//                 (active when SAenable is high); NMOS injectors gated by
//                 Di / DiBar convert the input stage's differential
//                 discharge into latch imbalance.
//   outputs:      inverters buffering L / LBar, as in the Fig. 1 testbench.
//
// Input switching for this topology uses a *static* pass-gate mux in front
// of the input-pair gates (selected by the Switch signal, not pulsed by
// SAenable: the inputs must stay connected throughout the evaluation).  The
// final read value is inverted when swapped, exactly as in the latch-type
// ISSA.
#pragma once

#include "issa/aging/bti_model.hpp"
#include "issa/sa/builder.hpp"
#include "issa/workload/workload.hpp"

namespace issa::sa {

/// Device names (for the stress maps and tests).
namespace dt_names {
inline constexpr std::string_view kMin = "DtMin";            // input NMOS, gate from BL
inline constexpr std::string_view kMinBar = "DtMinBar";      // input NMOS, gate from BLBar
inline constexpr std::string_view kTail1 = "DtTail1";
inline constexpr std::string_view kPre = "DtPre";            // precharge of DiBar (drain of Min)
inline constexpr std::string_view kPreBar = "DtPreBar";
inline constexpr std::string_view kInj = "DtInj";            // injector driven by Di
inline constexpr std::string_view kInjBar = "DtInjBar";
inline constexpr std::string_view kLatchN = "DtLatchN";      // latch NMOS on L
inline constexpr std::string_view kLatchNBar = "DtLatchNBar";
inline constexpr std::string_view kLatchP = "DtLatchP";
inline constexpr std::string_view kLatchPBar = "DtLatchPBar";
inline constexpr std::string_view kTail2 = "DtTail2";
inline constexpr std::string_view kMux1 = "DtMux1";  // BL    -> G
inline constexpr std::string_view kMux2 = "DtMux2";  // BLBar -> GBar
inline constexpr std::string_view kMux3 = "DtMux3";  // BLBar -> G     (swapped)
inline constexpr std::string_view kMux4 = "DtMux4";  // BL    -> GBar  (swapped)
}  // namespace dt_names

/// Builds the plain double-tail SA testbench.  The returned circuit's
/// "s"/"sbar" handles point at the latch nodes L / LBar (the decision
/// nodes), so measure_offset / measure_delay work unchanged.
SenseAmpCircuit build_double_tail(const SenseAmpConfig& config);

/// Builds the input-switching double-tail SA (static input mux).  Use
/// SenseAmpCircuit::set_swapped() to select the crossed mux pair.
SenseAmpCircuit build_double_tail_switching(const SenseAmpConfig& config);

/// Stress maps for the double-tail devices under a workload (the analogue of
/// workload::nssa_stress_map / issa_stress_map for this topology).
aging::DeviceStressMap double_tail_stress_map(const workload::Workload& workload, double vdd);
aging::DeviceStressMap double_tail_switching_stress_map(const workload::Workload& workload,
                                                        double vdd);

}  // namespace issa::sa
