#include "issa/util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace issa::util {

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

// The spec in `flags` that declares `arg` (--name or --name=value), or
// nullopt when none does.
std::optional<std::string_view> declared(std::string_view arg,
                                         const std::vector<std::string_view>& flags) {
  if (arg.substr(0, 2) != "--") return std::nullopt;
  const std::string_view name = arg.substr(2, arg.find('=') - 2);
  for (const std::string_view spec : flags) {
    if (spec.ends_with('*') ? name.starts_with(spec.substr(0, spec.size() - 1))
                            : name == spec.substr(0, spec.find_first_of("=["))) {
      return spec;
    }
  }
  return std::nullopt;
}

}  // namespace

Options::Options(int argc, const char* const* argv, const std::vector<std::string_view>& flags) {
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
    const std::string_view arg(argv[i]);
    const auto spec = declared(arg, flags);
    if (!spec) fail("unknown option " + std::string(arg));
    // "name=X" requires its value; "name[=X]" and "name" do not.
    if (arg.find('=') == std::string_view::npos && spec->find('=') != std::string_view::npos &&
        spec->find("[=") == std::string_view::npos) {
      fail(std::string(arg) + " needs a value: --" + std::string(*spec));
    }
    args_ += argv[i];
    args_ += '\n';
  }
}

void Options::fail(std::string_view message) const {
  std::fprintf(stderr, "%.*s\n", static_cast<int>(message.size()), message.data());
  std::fprintf(stderr, "%s\n", usage_.c_str());
  std::exit(2);
}

bool Options::has_flag(std::string_view name) const {
  const auto v = find_arg(args_, name);
  if (!v) return false;
  return *v != "0" && *v != "false";
}

std::optional<std::string> Options::get_string(std::string_view name) const {
  return find_arg(args_, name);
}

std::optional<double> Options::get_double(std::string_view name) const {
  const auto v = find_arg(args_, name);
  if (!v || v->empty()) return std::nullopt;
  // Like get_long: the whole string must parse, and to a finite value ("5x"
  // and "nan" are typos, not 5 and a silently disabled comparison).
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*v, &consumed);
    if (consumed != v->size() || !std::isfinite(value)) {
      throw std::invalid_argument("trailing characters or non-finite");
    }
    return value;
  } catch (const std::exception&) {
    fail("bad numeric value for --" + std::string(name) + ": " + *v);
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
    fail("bad integer value for --" + std::string(name) + ": " + *v);
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
    fail("--" + std::string(name) + " must be a positive integer: " + std::to_string(*v));
  }
  return static_cast<std::size_t>(*v);
}

}  // namespace issa::util
