#include "issa/sa/config.hpp"

namespace issa::sa {

SenseAmpConfig nominal_config() { return SenseAmpConfig{}; }

}  // namespace issa::sa
