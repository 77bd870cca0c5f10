#include "issa/analysis/mc_cache.hpp"

#include <atomic>
#include <cstring>
#include <memory>

#include "issa/circuit/netlist.hpp"
#include "issa/sa/builder.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/store/fingerprint.hpp"
#include "issa/util/store/store.hpp"

namespace issa::analysis::mc_cache {

namespace {

namespace mnames = util::metrics::names;

util::metrics::Counter& m_hits() {
  static util::metrics::Counter& c =
      util::metrics::Registry::instance().counter(mnames::kMcCacheHits);
  return c;
}
util::metrics::Counter& m_misses() {
  static util::metrics::Counter& c =
      util::metrics::Registry::instance().counter(mnames::kMcCacheMisses);
  return c;
}
util::metrics::Counter& m_stores() {
  static util::metrics::Counter& c =
      util::metrics::Registry::instance().counter(mnames::kMcCacheStores);
  return c;
}

// The open store.  open()/close() happen while no distribution is running
// (bench setup/teardown); lookup/insert from pool threads only ever see a
// stable pointer, and the Store serializes its own internals.
std::unique_ptr<util::store::Store> g_store;
std::atomic<bool> g_enabled{false};

std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_stores{0};

void hash_mos_params(util::store::Hasher& h, const device::MosParams& p) {
  h.f64(p.vth0)
      .f64(p.gamma)
      .f64(p.phi)
      .f64(p.mu0)
      .f64(p.cox)
      .f64(p.lambda)
      .f64(p.theta)
      .f64(p.esat_l)
      .f64(p.n_sub)
      .f64(p.length)
      .f64(p.tnom)
      .f64(p.mu_temp_exp)
      .f64(p.vth_tc)
      .f64(p.cj_per_width)
      .f64(p.cov_per_width);
}

// Canonical form of a source wave: its slope-change times plus the value at
// and just outside each — a complete description of a piecewise-linear
// signal without reaching into SourceWave's private point list.
void hash_wave(util::store::Hasher& h, const circuit::SourceWave& wave) {
  const std::vector<double> corners = wave.corner_times();
  h.u64(corners.size());
  if (corners.empty()) {
    h.f64(wave.value(0.0));
    return;
  }
  h.f64(wave.value(corners.front() - 1.0));
  for (const double t : corners) h.f64(t).f64(wave.value(t));
  h.f64(wave.value(corners.back() + 1.0));
}

// Everything the simulator reads from a freshly built (unvaried, unaged)
// testbench netlist.  Catches builder/topology changes that the config
// fields alone would not.
void hash_netlist(util::store::Hasher& h, const circuit::Netlist& netlist) {
  h.u64(netlist.node_count());
  for (std::size_t i = 0; i < netlist.node_count(); ++i) {
    h.str(netlist.node_name(static_cast<circuit::NodeId>(i)));
  }
  h.u64(netlist.resistors().size());
  for (const auto& r : netlist.resistors()) {
    h.str(r.name).u64(static_cast<std::uint64_t>(r.a)).u64(static_cast<std::uint64_t>(r.b));
    h.f64(r.resistance);
  }
  h.u64(netlist.capacitors().size());
  for (const auto& c : netlist.capacitors()) {
    h.str(c.name).u64(static_cast<std::uint64_t>(c.a)).u64(static_cast<std::uint64_t>(c.b));
    h.f64(c.capacitance);
  }
  h.u64(netlist.mosfets().size());
  for (const auto& m : netlist.mosfets()) {
    h.str(m.name)
        .u64(static_cast<std::uint64_t>(m.gate))
        .u64(static_cast<std::uint64_t>(m.drain))
        .u64(static_cast<std::uint64_t>(m.source))
        .u64(static_cast<std::uint64_t>(m.bulk))
        .u32(static_cast<std::uint32_t>(m.inst.type))
        .f64(m.inst.w_over_l)
        .f64(m.inst.delta_vth);
    hash_mos_params(h, m.inst.card);
  }
  h.u64(netlist.vsources().size());
  for (const auto& v : netlist.vsources()) {
    h.str(v.name).u64(static_cast<std::uint64_t>(v.pos)).u64(static_cast<std::uint64_t>(v.neg));
    hash_wave(h, v.wave);
  }
  h.u64(netlist.isources().size());
  for (const auto& s : netlist.isources()) {
    h.str(s.name).u64(static_cast<std::uint64_t>(s.pos)).u64(static_cast<std::uint64_t>(s.neg));
    hash_wave(h, s.wave);
  }
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_acquire); }

void open(const std::string& directory) {
  close();
  g_store = std::make_unique<util::store::Store>(directory);
  g_enabled.store(true, std::memory_order_release);
}

void close() {
  g_enabled.store(false, std::memory_order_release);
  g_store.reset();  // flushes in the destructor
}

void flush() {
  if (g_store) g_store->flush();
}

util::store::Store* store() noexcept { return g_store.get(); }

CacheCounts counts() noexcept {
  return {g_hits.load(std::memory_order_relaxed), g_misses.load(std::memory_order_relaxed),
          g_stores.load(std::memory_order_relaxed)};
}

std::string condition_fingerprint(const Condition& condition, const McConfig& mc) {
  util::store::Hasher h;
  h.u32(kSchemaVersion);

  // Armed injected faults change sample outcomes, so a faulted run hashes
  // its spec into the keyspace: replays only match runs armed identically.
  const std::vector<util::faultpoint::SiteReport> faults = util::faultpoint::report();
  h.u64(faults.size());
  for (const auto& site : faults) h.str(site.site).str(site.trigger);

  h.u32(static_cast<std::uint32_t>(condition.kind));
  const sa::SenseAmpConfig& cfg = condition.config;
  h.f64(cfg.vdd).f64(cfg.temperature_c).f64(cfg.node_cap).f64(cfg.out_load_cap);
  h.boolean(cfg.with_parasitics);
  h.f64(cfg.sizing.pass_wl)
      .f64(cfg.sizing.mdown_wl)
      .f64(cfg.sizing.mup_wl)
      .f64(cfg.sizing.mtop_wl)
      .f64(cfg.sizing.mbottom_wl)
      .f64(cfg.sizing.out_n_wl)
      .f64(cfg.sizing.out_p_wl);
  h.f64(cfg.timing.t_fire).f64(cfg.timing.t_rise).f64(cfg.timing.t_stop).f64(cfg.timing.dt);
  hash_mos_params(h, cfg.nmos);
  hash_mos_params(h, cfg.pmos);

  h.f64(condition.workload.activation_rate);
  h.u32(static_cast<std::uint32_t>(condition.workload.sequence));
  h.f64(condition.stress_time_s);

  h.f64(mc.mismatch.avt_nmos).f64(mc.mismatch.avt_pmos);
  const aging::BtiParams& bti = mc.bti;
  h.f64(bti.trap_areal_density)
      .f64(bti.eta_factor)
      .f64(bti.tau_c_min)
      .f64(bti.tau_c_max)
      .f64(bti.tau_alpha)
      .f64(bti.tau_e_ratio_min)
      .f64(bti.tau_e_ratio_max)
      .f64(bti.ea_capture)
      .f64(bti.ea_emission)
      .f64(bti.gamma_field)
      .f64(bti.temp_ref)
      .f64(bti.vdd_ref)
      .f64(bti.pmos_density_factor);

  h.u64(mc.seed);
  // Retry policy: every run retries a failed sample once.  Hashed as the
  // constant it became so fingerprints written while it was a setting still
  // match.
  h.boolean(true);
  // Iteration count, parallelism, pool, and run_id are
  // deliberately excluded: none of them changes what sample i computes.

  const sa::SenseAmpCircuit base = sa::build_sense_amp(condition.kind, condition.config);
  hash_netlist(h, base.netlist());

  return h.finish().hex();
}

std::string sample_key(const std::string& fingerprint, const char* kind, std::size_t sample) {
  std::string key;
  key.reserve(fingerprint.size() + 24);
  key.append(fingerprint);
  key.push_back(':');
  key.append(kind);
  key.push_back(':');
  key.append(std::to_string(sample));
  return key;
}

std::string encode(const CachedSample& sample_result) {
  std::string out;
  out.reserve(14 + sample_result.error.size());
  out.push_back(static_cast<char>(sample_result.status));
  out.push_back(sample_result.saturated ? 1 : 0);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &sample_result.value, sizeof bits);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(bits >> (8 * i)));
  const std::uint32_t error_len = static_cast<std::uint32_t>(sample_result.error.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(error_len >> (8 * i)));
  out.append(sample_result.error);
  return out;
}

bool decode(const std::string& bytes, CachedSample& out) {
  if (bytes.size() < 14) return false;
  out.status = static_cast<unsigned char>(bytes[0]);
  out.saturated = bytes[1] != 0;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[2 + i])) << (8 * i);
  }
  std::memcpy(&out.value, &bits, sizeof out.value);
  std::uint32_t error_len = 0;
  for (int i = 0; i < 4; ++i) {
    error_len |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[10 + i])) << (8 * i);
  }
  if (bytes.size() != 14 + static_cast<std::size_t>(error_len)) return false;
  out.error.assign(bytes, 14, error_len);
  return true;
}

bool lookup(const std::string& fingerprint, const char* kind, std::size_t sample,
            CachedSample& out) {
  util::store::Store* current = g_store.get();
  if (current == nullptr) return false;
  const std::optional<std::string> bytes = current->get(sample_key(fingerprint, kind, sample));
  if (bytes && decode(*bytes, out)) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    m_hits().add();
    return true;
  }
  // A record that fails to decode is a miss, never an error: the sample is
  // simply re-simulated and re-stored.
  g_misses.fetch_add(1, std::memory_order_relaxed);
  m_misses().add();
  return false;
}

void insert(const std::string& fingerprint, const char* kind, std::size_t sample,
            const CachedSample& sample_result) {
  util::store::Store* current = g_store.get();
  if (current == nullptr) return;
  if (current->put(sample_key(fingerprint, kind, sample), encode(sample_result))) {
    g_stores.fetch_add(1, std::memory_order_relaxed);
    m_stores().add();
  }
}

}  // namespace issa::analysis::mc_cache

