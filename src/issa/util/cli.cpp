#include "issa/util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace issa::util {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    args_ += argv[i];
    args_ += '\n';
  }
}

namespace {

// Finds "--name=..." or "--name\n" in the flattened argument list and returns
// the value portion ("" for bare flags), or nullopt when absent.
std::optional<std::string> find_arg(const std::string& args, std::string_view name) {
  const std::string key = "--" + std::string(name);
  std::size_t pos = 0;
  while (pos < args.size()) {
    const std::size_t end = args.find('\n', pos);
    const std::string_view token(args.data() + pos, end - pos);
    if (token == key) return std::string{};
    if (token.size() > key.size() && token.substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      return std::string(token.substr(key.size() + 1));
    }
    pos = end + 1;
  }
  return std::nullopt;
}

// True when `arg` is --name or --name=value for a name `flags` declares.
bool declared(std::string_view arg, const std::vector<std::string_view>& flags) {
  if (arg.substr(0, 2) != "--") return false;
  const std::string_view name = arg.substr(2, arg.find('=') - 2);
  for (const std::string_view spec : flags) {
    if (spec.ends_with('*') ? name.starts_with(spec.substr(0, spec.size() - 1))
                            : name == spec.substr(0, spec.find_first_of("=["))) {
      return true;
    }
  }
  return false;
}

}  // namespace

Options::Options(int argc, const char* const* argv, const std::vector<std::string_view>& flags)
    : Options(argc, argv) {
  const std::string_view program = argc > 0 ? argv[0] : "program";
  usage_ = "usage: " + std::string(program.substr(program.find_last_of('/') + 1));
  for (const std::string_view spec : flags) usage_ += " [--" + std::string(spec) + "]";
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help") {
      std::printf("%s\n", usage_.c_str());
      std::exit(0);
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (!declared(argv[i], flags)) fail("unknown option " + std::string(argv[i]));
  }
}

void Options::fail(std::string_view message) const {
  std::fprintf(stderr, "%.*s\n", static_cast<int>(message.size()), message.data());
  if (!usage_.empty()) std::fprintf(stderr, "%s\n", usage_.c_str());
  std::exit(2);
}

bool Options::has_flag(std::string_view name) const {
  const auto v = find_arg(args_, name);
  if (!v) return false;
  return *v != "0" && *v != "false";
}

bool Options::flag_or_env(std::string_view name, const char* env) const {
  if (has_flag(name)) return true;
  const char* value = std::getenv(env);
  return value != nullptr && value[0] != '\0' && std::string_view(value) != "0";
}

std::optional<std::string> Options::get_string(std::string_view name) const {
  return find_arg(args_, name);
}

std::optional<double> Options::get_double(std::string_view name) const {
  const auto v = find_arg(args_, name);
  if (!v || v->empty()) return std::nullopt;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    reject("bad numeric value for --" + std::string(name) + ": " + *v);
  }
}

std::optional<long> Options::get_long(std::string_view name) const {
  const auto v = find_arg(args_, name);
  if (!v || v->empty()) return std::nullopt;
  // Parse as an integer directly: going through stod would silently truncate
  // "3.7" to 3 and lose precision above 2^53.
  try {
    std::size_t consumed = 0;
    const long value = std::stol(*v, &consumed);
    if (consumed != v->size()) {
      throw std::invalid_argument("trailing characters");
    }
    return value;
  } catch (const std::exception&) {
    reject("bad integer value for --" + std::string(name) + ": " + *v);
  }
}

double Options::get_double_or(std::string_view name, double fallback) const {
  return get_double(name).value_or(fallback);
}

long Options::get_long_or(std::string_view name, long fallback) const {
  return get_long(name).value_or(fallback);
}

std::size_t Options::get_count_or(std::string_view name, std::size_t fallback) const {
  const auto v = get_long(name);
  if (!v) return fallback;
  if (*v <= 0) {
    reject("--" + std::string(name) + " must be a positive integer: " + std::to_string(*v));
  }
  return static_cast<std::size_t>(*v);
}

void Options::reject(const std::string& message) const {
  if (!usage_.empty()) fail(message);
  throw std::invalid_argument(message);
}

bool fast_mode(const Options& options) { return options.flag_or_env("fast", "ISSA_FAST"); }

std::size_t bench_mc_iterations(const Options& options) {
  return options.get_count_or("mc", fast_mode(options) ? 60u : 400u);
}

}  // namespace issa::util
