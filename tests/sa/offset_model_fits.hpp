// Counts offset-model fits through util::metrics: every fit runs inside an
// sa.offset_model_fit trace span, whose timer counts one per fit while
// metrics are enabled.
#pragma once

#include <cstdint>

#include "issa/util/metrics.hpp"
#include "issa/util/trace.hpp"

namespace issa::sa::testing {

// The number of offset-model fits `run()` makes.
template <typename Run>
std::uint64_t offset_model_fits(Run&& run) {
  util::metrics::Registry& registry = util::metrics::Registry::instance();
  const bool metrics_were_enabled = util::metrics::enabled();
  util::metrics::set_enabled(true);
  const util::metrics::Snapshot before = registry.snapshot();
  run();
  const util::metrics::Snapshot done = registry.snapshot().delta_since(before);
  util::metrics::set_enabled(metrics_were_enabled);
  return done.value(util::trace::spans::kSaOffsetModelFit);
}

}  // namespace issa::sa::testing
