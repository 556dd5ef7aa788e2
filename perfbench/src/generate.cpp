// Inputs: every instance is drawn from the workload seed, so the same seed
// always yields the same files, and the measured process only ever sees the
// generated scenario JSON, which load_instances() parses.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/scenario_io.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

haste::sim::ScenarioConfig scenario_config(const std::string& workload, bool tiny) {
  haste::sim::ScenarioConfig config = haste::sim::ScenarioConfig::paper_default();
  if (workload == "offline-2x") {
    // Twice the paper's scale on the paper's field.
    config.chargers = tiny ? 12 : 100;
    config.tasks = tiny ? 40 : 400;
  } else if (workload == "online-paper") {
    config.chargers = tiny ? 8 : 50;
    config.tasks = tiny ? 24 : 200;
    if (tiny) config.release_window_slots = 8;
  } else if (workload == "serve-bursty") {
    // The predictor's calibrated bursty-hotspot regime.
    config.chargers = tiny ? 6 : 20;
    config.tasks = tiny ? 20 : 80;
    config.release_window_slots = 24;
    config.burst_factor = 4.0;
    config.hotspot_fraction = 0.6;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return config;
}

}  // namespace

void generate_inputs(const std::string& workload, std::uint64_t seed, int count, bool tiny,
                     const std::string& dir) {
  if (count < 1) throw std::invalid_argument("--count must be >= 1");
  const haste::sim::ScenarioConfig config = scenario_config(workload, tiny);
  std::filesystem::create_directories(dir);
  Json instances = Json::array();
  for (int i = 0; i <= count; ++i) {
    haste::util::Rng rng(haste::util::Rng::stream_seed(seed, static_cast<std::uint64_t>(i)));
    const haste::model::Network net = haste::sim::generate_scenario(config, rng);
    char name[32];
    std::snprintf(name, sizeof(name), "i%04d.json", i);
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out << haste::io::network_to_json(net).dump() << "\n";
    if (!out) throw std::runtime_error(std::string("cannot write ") + dir + "/" + name);

    Json spec = Json::object();
    spec.set("file", name);
    Json failures = Json::array();
    if (workload == "serve-bursty") {
      // Two distinct chargers die inside the arrival window.
      const auto first = static_cast<int>(rng.uniform_int(0, config.chargers - 1));
      auto second = static_cast<int>(rng.uniform_int(0, config.chargers - 2));
      if (second >= first) ++second;
      for (const int charger : {first, second}) {
        Json failure = Json::object();
        failure.set("charger", charger);
        failure.set("slot", static_cast<int>(rng.uniform_int(1, config.release_window_slots)));
        failures.push_back(std::move(failure));
      }
    }
    spec.set("failures", std::move(failures));
    instances.push_back(std::move(spec));
  }
  Json manifest = Json::object();
  manifest.set("workload", workload);
  manifest.set("seed", std::to_string(seed));
  manifest.set("tiny", tiny);
  manifest.set("instances", std::move(instances));
  haste::util::save_json_file(dir + "/manifest.json", manifest);
}

Manifest load_manifest(const std::string& dir) {
  const Json doc = haste::util::load_json_file(dir + "/manifest.json");
  Manifest manifest;
  manifest.workload = doc.at("workload").as_string();
  const Json& instances = doc.at("instances");
  for (std::size_t i = 0; i < instances.size(); ++i) {
    InstanceSpec spec;
    spec.file = dir + "/" + instances.at(i).at("file").as_string();
    const Json& failures = instances.at(i).at("failures");
    for (std::size_t f = 0; f < failures.size(); ++f) {
      spec.failures.emplace_back(static_cast<int>(failures.at(f).at("charger").as_int()),
                                 static_cast<int>(failures.at(f).at("slot").as_int()));
    }
    manifest.instances.push_back(std::move(spec));
  }
  if (manifest.instances.size() < 2) {
    throw std::runtime_error("manifest needs a warm-up instance and at least one more");
  }
  return manifest;
}

std::vector<std::string> read_scenarios(const Manifest& manifest) {
  std::vector<std::string> texts;
  for (const InstanceSpec& spec : manifest.instances) texts.push_back(read_file(spec.file));
  return texts;
}

Instances load_instances(const std::vector<std::string>& texts, Track& track, bool keep) {
  Instances loaded;
  for (const std::string& text : texts) {
    auto root = track.span("setup.instance");
    Json scenario;
    {
      auto span = track.span("io.parse");
      scenario = Json::parse(text);
    }
    auto span = track.span("model.network");
    auto net = std::make_unique<haste::model::Network>(haste::io::network_from_json(scenario));
    if (keep) {
      loaded.scenarios.push_back(std::move(scenario));
      loaded.nets.push_back(std::move(net));
    }
  }
  return loaded;
}

}  // namespace perfbench
