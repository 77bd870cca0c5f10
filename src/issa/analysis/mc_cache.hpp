// Content-addressed Monte-Carlo sample cache on top of util/store.
//
// PR 4 made every Monte-Carlo sample a pure, bit-identical function of
// (netlist, condition, mc config, seed, sample index) at any thread count —
// exactly the property a content-addressed cache needs.  This layer turns
// that purity into warm reruns: each per-sample offset/delay result (and
// each quarantine verdict) is stored under a key derived from a SHA-256
// fingerprint of EVERYTHING the sample depends on, so a rerun of the same
// sweep replays solved samples from disk instead of re-simulating them, and
// an interrupted sweep resumes from the store's last fsync'd checkpoint.
//
// Fingerprint recipe (see DESIGN.md section 15 for the rationale):
//   kSchemaVersion                       bump on any solver/model change that
//                                        alters sample values — the manual
//                                        invalidation lever
//   armed fault-injection spec           injected faults change outcomes, so
//                                        faulted runs get their own keyspace
//   condition                            kind, full SenseAmpConfig (sizing,
//                                        timing, both MOS cards), workload,
//                                        stress time
//   canonicalized netlist                nodes + devices + source waves of
//                                        the testbench the builder actually
//                                        produced (catches builder changes
//                                        that the config alone would miss)
//   mismatch + BTI parameters            every field of the calibrated
//                                        defaults (constants since they
//                                        stopped being settings)
//   mc seed (+ the constant retry flag)  sample streams are keyed by (seed,
//                                        index), so ITERATION COUNT is
//                                        deliberately excluded: growing a
//                                        sweep from 400 to 4000 samples
//                                        reuses the first 400
//   a given stress map (only when one    device names in sorted order, each
//   replaces condition_stress_map)       phase's fraction and vstress, so a
//                                        custom-map pass never shares the
//                                        standard condition's keys
//
// Cache keys are "<fingerprint-hex>:<kind>:<sample>" with kind one of
// "offset" or "delay.worst" — human-greppable in store_report.
//
// The subsystem is inert unless open() is called (benches wire this to
// --cache[=dir]).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "issa/analysis/montecarlo.hpp"

namespace issa::util::store {
class Store;
}

namespace issa::analysis::mc_cache {

/// Bump whenever a code change alters what any (condition, seed, sample)
/// computes: solver numerics, model equations, measurement profiles, or the
/// cached record encoding.  Stale stores then miss cleanly and re-simulate.
/// Version 2: the simulator solves only the unpinned node voltages, which
/// moved sample values by up to about 0.01 mV.  Version 3: the offset
/// search warm-starts from the linear offset model (sa::offset_model), which
/// moves offsets by up to about one search tolerance (0.05 mV).  Version 4:
/// transients start at the first source corner with a predicted Newton
/// guess, and the offset model is fitted from interpolated flips, which moves
/// offsets by up to one search tolerance.  Version 5: the fast-path offset
/// search ends at its first linear bracket no wider than 2 mV and reports the
/// interpolated flip, which moves offsets by up to about one search tolerance.
/// Version 6: the fast-path offset search reads the flip extrapolated along
/// the final split's sensitivity to the bitline drive, mostly after one
/// transient, which moves offsets at the uV level.  Version 7: one search
/// for every kind (the double-tail SAs get an offset model too), every probe
/// starts its DC solve from the circuit's guess, and the model fit reads
/// extrapolated flips, which moves offsets at the uV level.  Version 8: the
/// model fit runs measure_offset's own fast search, which moves offsets at
/// the sub-uV level, and a delay measurement no longer escalates its swing
/// past 2x.  Version 9: each transient step's Newton solve starts from the
/// quadratic through the last three accepted states, which moves sample
/// values below the displayed digits.
inline constexpr std::uint32_t kSchemaVersion = 9;

/// One cached per-sample result.  `status` carries the Monte-Carlo engine's
/// outcome slot (ok / recovered / quarantined) so a warm rerun reproduces
/// the degradation record — not just the value — bit-identically.
struct CachedSample {
  unsigned char status = 0;
  double value = 0.0;      ///< offset [V] or delay [s]; NaN when quarantined
  bool saturated = false;  ///< offset measurements only
  std::string error;       ///< quarantine reason, empty otherwise
};

/// Process-lifetime hit accounting, independent of the metrics layer so the
/// bench summary line and the CI gates work without --metrics.
struct CacheCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
};

/// True when a cache store is open: the distribution loops consult it.
bool enabled() noexcept;

/// Opens (or creates) the cache store at `directory` and makes it current.
/// Replaces any previously open cache.  Throws std::runtime_error on I/O
/// errors.  Call while no distribution is running.
void open(const std::string& directory);

/// Flushes and closes the current cache (no-op when none is open).
void close();

/// Flushes buffered records to disk without closing.
void flush();

/// The open store, or nullptr — for tools and tests.
util::store::Store* store() noexcept;

CacheCounts counts() noexcept;

/// Condition-level half of every key: hex SHA-256 over the fingerprint
/// recipe above.  Computed once per distribution call, shared by all its
/// samples.  `stress` is the map a pass ages under instead of the
/// condition's own (nullptr: the condition's, and the recipe hashes no map).
std::string condition_fingerprint(const Condition& condition, const McConfig& mc,
                                  const aging::DeviceStressMap* stress = nullptr);

/// Full key of one sample's record.
std::string sample_key(const std::string& fingerprint, const char* kind, std::size_t sample);

/// Replays one sample from the cache.  Returns false on miss (including a
/// record that fails to decode, which is treated as absent).  Counts one
/// hit or miss.
bool lookup(const std::string& fingerprint, const char* kind, std::size_t sample,
            CachedSample& out);

/// Stores one computed sample.  Counts one store when the record is new.
void insert(const std::string& fingerprint, const char* kind, std::size_t sample,
            const CachedSample& sample_result);

/// Record encoding, exposed for store_report and tests.
std::string encode(const CachedSample& sample_result);
bool decode(const std::string& bytes, CachedSample& out);

}  // namespace issa::analysis::mc_cache
