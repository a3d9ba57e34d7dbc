#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/text.hpp"

namespace tcsa {

Cli::Cli(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void Cli::add_int(const std::string& name, std::int64_t fallback,
                  const std::string& help) {
  options_[name] = Option{Kind::kInt, std::to_string(fallback), help};
}

void Cli::add_double(const std::string& name, double fallback,
                     const std::string& help) {
  options_[name] = Option{Kind::kDouble, str_cat(fallback), help};
}

void Cli::add_string(const std::string& name, const std::string& fallback,
                     const std::string& help) {
  options_[name] = Option{Kind::kString, fallback, help};
}

void Cli::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{Kind::kFlag, "0", help};
}

Cli::Option& Cli::find_mutable(const std::string& name) {
  auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("unknown option --" + name);
  return it->second;
}

const Cli::Option& Cli::find(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  TCSA_REQUIRE(it != options_.end(), "option was never registered: " + name);
  TCSA_REQUIRE(it->second.kind == kind, "option accessed with wrong type: " + name);
  return it->second;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print(stdout, help());
      return false;
    }
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("positional arguments unsupported: " + arg);
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    Option& opt = find_mutable(arg);
    if (opt.kind == Kind::kFlag) {
      if (has_value)
        throw std::invalid_argument("flag --" + arg + " takes no value");
      opt.value = "1";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc)
        throw std::invalid_argument("option --" + arg + " needs a value");
      value = argv[++i];
    }
    if (opt.kind == Kind::kInt) {
      char* end = nullptr;
      (void)std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0')
        throw std::invalid_argument("option --" + arg + " expects an integer");
    } else if (opt.kind == Kind::kDouble) {
      char* end = nullptr;
      (void)std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0')
        throw std::invalid_argument("option --" + arg + " expects a number");
    }
    opt.value = value;
  }
  return true;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::strtoll(find(name, Kind::kInt).value.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name) const {
  return std::strtod(find(name, Kind::kDouble).value.c_str(), nullptr);
}

const std::string& Cli::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool Cli::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "1";
}

std::string Cli::help() const {
  std::string text = program_ + " — " + summary_ + "\n\noptions:\n";
  for (const auto& [name, opt] : options_) {
    text += "  --" + name;
    if (opt.kind != Kind::kFlag) text += " <" + opt.value + ">";
    text += "\n      " + opt.help + '\n';
  }
  return text;
}

}  // namespace tcsa
