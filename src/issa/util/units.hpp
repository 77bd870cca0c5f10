// Physical constants and unit helpers used throughout the simulator.
//
// All internal quantities are SI: volts, amperes, seconds, farads, kelvin;
// to_mV and to_ps convert to the units the reports print.
#pragma once

namespace issa::util {

/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;

/// Elementary charge [C].
inline constexpr double kElementaryCharge = 1.602176634e-19;

/// 0 degrees Celsius in kelvin.
inline constexpr double kZeroCelsiusInKelvin = 273.15;

/// Reference temperature for device cards and BTI time constants [K] (27 C).
inline constexpr double kReferenceTemperatureK = 300.15;

/// Converts a temperature in degrees Celsius to kelvin.
constexpr double celsius_to_kelvin(double celsius) noexcept {
  return celsius + kZeroCelsiusInKelvin;
}

/// Thermal voltage kT/q at the given temperature [V].
constexpr double thermal_voltage(double temperature_k) noexcept {
  return kBoltzmann * temperature_k / kElementaryCharge;
}

/// Converts volts to millivolts (for reporting).
constexpr double to_mV(double volts) noexcept { return volts * 1e3; }

/// Converts seconds to picoseconds (for reporting).
constexpr double to_ps(double seconds) noexcept { return seconds * 1e12; }

}  // namespace issa::util
