#include "updsm/harness/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "updsm/sim/cost_model.hpp"

namespace updsm::harness {

void parse_flags(int argc, char** argv, const std::vector<Flag>& flags,
                 const std::function<void(int code)>& usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") usage(0);
    const Flag* match = nullptr;
    const char* value = "";
    for (const Flag& flag : flags) {
      if (!flag.takes_value && arg == flag.name) {
        match = &flag;
      } else if (flag.takes_value && arg.size() > flag.name.size() &&
                 arg.compare(0, flag.name.size(), flag.name) == 0 &&
                 arg[flag.name.size()] == '=') {
        match = &flag;
        value = argv[i] + flag.name.size() + 1;
      }
      if (match != nullptr) break;
    }
    if (match == nullptr) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(2);
    }
    try {
      match->apply(value);
    } catch (const FlagError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage(2);
    }
  }
}

Flag int_flag(std::string name, int& field) {
  return {std::move(name), true,
          [&field](const char* v) { field = std::atoi(v); }};
}

Flag seed_flag(std::string name, std::uint64_t& field) {
  return {std::move(name), true,
          [&field](const char* v) { field = std::strtoull(v, nullptr, 0); }};
}

Flag text_flag(std::string name, std::string& field) {
  return {std::move(name), true, [&field](const char* v) { field = v; }};
}

Flag switch_flag(std::string name, bool& field, bool value) {
  return {std::move(name), false,
          [&field, value](const char*) { field = value; }};
}

std::vector<int> parse_int_list(const std::string& flag, const char* spec,
                                int min, int max) {
  std::vector<int> values;
  long long value = 0;
  bool have = false;
  for (const char* p = spec;; ++p) {
    if (*p >= '0' && *p <= '9') {
      // Saturate: anything past `max` is rejected below anyway.
      value = std::min<long long>(value * 10 + (*p - '0'),
                                  static_cast<long long>(max) + 1);
      have = true;
    } else if (*p == ',' || *p == '\0') {
      if (have) {
        if (value < min || value > max) {
          throw FlagError(flag + " entry " + std::to_string(value) +
                          " outside [" + std::to_string(min) + ", " +
                          std::to_string(max) + "]");
        }
        values.push_back(static_cast<int>(value));
      }
      value = 0;
      have = false;
      if (*p == '\0') break;
    } else {
      throw FlagError("bad " + flag + " entry: " + spec);
    }
  }
  if (values.empty()) {
    throw FlagError(flag + " must name at least one value");
  }
  return values;
}

std::vector<Flag> RunOptions::flags() {
  return {
      int_flag("--nodes", nodes),
      {"--scale", true, [this](const char* v) { scale = std::atof(v); }},
      int_flag("--warmup", warmup),
      int_flag("--iters", iterations),
      {"--gang", true,
       [this](const char* v) {
         const std::string mode = v;
         if (mode == "parallel") {
           gang = sim::GangMode::Parallel;
         } else if (mode == "baton") {
           gang = sim::GangMode::Baton;
         } else if (mode == "async") {
           gang = sim::GangMode::Async;
         } else {
           throw FlagError("unknown gang mode: " + mode);
         }
       }},
      {"--workers", true,
       [this](const char* v) {
         workers = std::atoi(v);
         if (workers < 1) {
           throw FlagError(std::string("--workers must be >= 1, got ") + v);
         }
       }},
      switch_flag("--no-aggregate", aggregate, false),
      int_flag("--fanout", fanout),
      int_flag("--relay-threshold", relay_threshold),
      text_flag("--net-profile", net_profile),
      {"--cost", true,
       [this](const char* v) { cost_overrides.emplace_back(v); }},
      int_flag("--adaptive-window", adaptive_window),
  };
}

apps::AppParams RunOptions::app_params() const {
  apps::AppParams p;
  p.scale = scale;
  p.warmup_iterations = warmup;
  p.measured_iterations = iterations;
  p.seed = seed;
  return p;
}

dsm::ClusterConfig RunOptions::cluster_config(dsm::ClusterConfig cfg) const {
  cfg.num_nodes = nodes;
  cfg.seed = seed;
  cfg.gang = gang;
  cfg.workers = workers;
  cfg.aggregate_flushes = aggregate;
  cfg.barrier_fanout = fanout;
  cfg.relay_threshold = relay_threshold;
  cfg.net_profile = net_profile;
  cfg.costs = sim::CostModel::from_profile(net_profile);
  sim::apply_cost_overrides(cfg.costs, cost_overrides);
  cfg.adaptive_window = adaptive_window;
  // Fail with a usable message before a run starts, not deep inside one.
  dsm::validate_cluster_config(cfg);
  return cfg;
}

}  // namespace updsm::harness
