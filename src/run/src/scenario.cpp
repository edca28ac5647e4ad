#include "hetscale/run/scenario.hpp"

#include <map>
#include <utility>

#include "hetscale/support/error.hpp"

namespace hetscale::run {

namespace {

std::map<std::string, Scenario>& registry() {
  static std::map<std::string, Scenario> scenarios;
  return scenarios;
}

}  // namespace

void register_scenario(Scenario scenario) {
  HETSCALE_REQUIRE(!scenario.name.empty(), "scenario name must be non-empty");
  HETSCALE_REQUIRE(scenario.run != nullptr,
                   "scenario '" + scenario.name + "' has no run function");
  const auto [it, inserted] =
      registry().emplace(scenario.name, std::move(scenario));
  HETSCALE_REQUIRE(inserted,
                   "scenario '" + it->first + "' is already registered");
}

const Scenario* find_scenario(const std::string& name) {
  const auto it = registry().find(name);
  return it != registry().end() ? &it->second : nullptr;
}

std::vector<const Scenario*> all_scenarios() {
  std::vector<const Scenario*> out;
  out.reserve(registry().size());
  for (const auto& [name, scenario] : registry()) out.push_back(&scenario);
  return out;  // std::map iteration is already name-sorted
}

OutputFormat parse_format(const std::string& text) {
  if (text == "text") return OutputFormat::kText;
  if (text == "csv") return OutputFormat::kCsv;
  if (text == "json") return OutputFormat::kJson;
  throw PreconditionError("unknown --format '" + text +
                          "' (expected text, csv, or json)");
}

const std::string& render(const RunResult& result, OutputFormat format,
                          std::string& storage) {
  switch (format) {
    case OutputFormat::kText:
      return result.text;
    case OutputFormat::kCsv:
      storage = result.to_csv();
      return storage;
    case OutputFormat::kJson:
      storage = result.to_json();
      return storage;
  }
  throw PreconditionError("invalid output format");
}

}  // namespace hetscale::run
