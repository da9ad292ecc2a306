// Benchmark driver: one pass over one workload, or the primitive rates.
//
//   perfbench_driver --workload paper8 --seed 7 [--fault-seed 42] --trace 0|1
//   perfbench_driver --primitives --seed 7
//
// Prints one JSON object on its last stdout line. A pass reports the host
// stamp, the span sums, the hook totals (traced passes), and every cell's
// check result with a fingerprint of its deterministic outputs (checksum
// bits, virtual time, model counts). run.py starts one driver process per
// pass and aggregates; a fresh process per pass keeps every pass's
// allocator and page-zeroing state identical.
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "primitives.hpp"
#include "updsm/common/error.hpp"
#include "updsm/sim/gang.hpp"
#include "workloads.hpp"

namespace {

struct Args {
  std::string workload;
  bool primitives = false;
  std::uint64_t seed = 0x5ca1ab1e;
  std::uint64_t fault_seed = 42;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--primitives") {
      a.primitives = true;
      continue;
    }
    if (i + 1 >= argc) throw updsm::UsageError("missing value for " + key);
    const std::string value = argv[++i];
    auto number = [&]() -> std::uint64_t {
      std::uint64_t v = 0;
      const auto [p, ec] =
          std::from_chars(value.data(), value.data() + value.size(), v);
      if (ec != std::errc{} || p != value.data() + value.size()) {
        throw updsm::UsageError("bad number for " + key + ": '" + value + "'");
      }
      return v;
    };
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = number();
    } else if (key == "--fault-seed") {
      a.fault_seed = number();
    } else if (key == "--trace") {
      const std::uint64_t t = number();
      if (t > 1) throw updsm::UsageError("--trace must be 0 or 1");
      a.trace = t == 1;
    } else {
      throw updsm::UsageError("unknown option " + key);
    }
  }
  if (a.workload.empty() && !a.primitives) {
    throw updsm::UsageError("--workload or --primitives is required");
  }
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    if (b != std::string::npos) {
      return s.substr(b, s.find_last_not_of(' ') - b + 1);
    }
  }
#endif
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string num(double v) {
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, p) : "0";
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string counts_json(const perfbench::ModelCounts& counts) {
  std::string out = "{";
  for (std::size_t i = 0; i < perfbench::ModelCounts::kCount; ++i) {
    out += std::string(i == 0 ? "" : ", ") +
           str(perfbench::ModelCounts::kNames[i]) + ": " +
           num(counts.values[i]);
  }
  return out + "}";
}

std::string host_json(const perfbench::WorkloadSpec& w) {
  return "{\"nproc\": " + std::to_string(online_cpus()) +
         ", \"cpu_model\": " + str(cpu_model()) +
         ", \"compiler\": " + str(PERFBENCH_COMPILER) +
         ", \"build_type\": " + str(PERFBENCH_BUILD_TYPE) +
         ", \"workers\": " +
         std::to_string(updsm::sim::Gang::resolve_workers(
             w.config.workers, w.config.num_nodes)) +
         ", \"jobs\": 1, \"nodes\": " + std::to_string(w.config.num_nodes) +
         ", \"gang\": " + str(updsm::sim::to_string(w.config.gang)) + "}";
}

std::string pass_json(const perfbench::WorkloadSpec& w,
                      const perfbench::PassResult& p) {
  std::string out =
      "{\"host\": " + host_json(w) +
      ", \"traced\": " + (p.traced ? "true" : "false") +
      ", \"apps_setup_s\": " + num(p.apps_setup_s) +
      ", \"cluster_ctor_s\": " + num(p.cluster_ctor_s) +
      ", \"run_s\": " + num(p.run_s) +
      ", \"sequential_s\": " + num(p.sequential_s) +
      ", \"hooks_union_in_run_s\": " + num(p.hooks_union_in_run_s) +
      ", \"virtual_ns\": " + std::to_string(p.virtual_ns) +
      ", \"counts\": " + counts_json(p.counts) + ", \"hooks\": {";
  for (std::size_t h = 0; h < perfbench::kHookCount; ++h) {
    out += std::string(h == 0 ? "" : ", ") +
           str(perfbench::hook_name(static_cast<perfbench::Hook>(h))) +
           ": {\"calls\": " + num(p.hooks.calls[h]) +
           ", \"busy_s\": " + num(static_cast<double>(p.hooks.busy_ns[h]) * 1e-9) +
           "}";
  }
  out += "}, \"cells\": [";
  for (std::size_t c = 0; c < p.cells.size(); ++c) {
    const perfbench::CellResult& r = p.cells[c];
    char checksum[17];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(r.checksum_bits));
    std::string fingerprint = std::string(checksum) + "/" +
                              std::to_string(r.virtual_ns);
    for (const std::uint64_t v : r.counts.values) {
      fingerprint += "/" + std::to_string(v);
    }
    out += std::string(c == 0 ? "" : ", ") +
           "{\"app\": " + str(w.cells[c].app) +
           ", \"protocol\": " +
           str(updsm::protocols::to_string(w.cells[c].kind)) +
           ", \"ok\": " + (r.ok ? "true" : "false") +
           ", \"error\": " + str(r.error) +
           ", \"fingerprint\": " + str(fingerprint) + "}";
  }
  return out + "]}";
}

std::string primitives_json(const perfbench::PrimitiveRates& r) {
  return "{\"primitives\": {"
         "\"mem.diff_create_sparse_ns_per_page\": " +
         num(r.diff_create_sparse_ns_per_page) +
         ", \"mem.diff_create_alternating_ns_per_page\": " +
         num(r.diff_create_alternating_ns_per_page) +
         ", \"mem.diff_apply_ns_per_page\": " + num(r.diff_apply_ns_per_page) +
         ", \"dsm.flush_batch_encode_ns_per_record\": " +
         num(r.flush_batch_encode_ns_per_record) +
         ", \"dsm.flush_batch_decode_ns_per_record\": " +
         num(r.flush_batch_decode_ns_per_record) + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.primitives) {
      std::printf("%s\n",
                  primitives_json(perfbench::measure_primitives(args.seed))
                      .c_str());
      return 0;
    }
    const perfbench::WorkloadSpec workload =
        perfbench::make_workload(args.workload, args.seed, args.fault_seed);
    const perfbench::PassResult pass =
        perfbench::run_pass(workload, args.trace);
    std::printf("%s\n", pass_json(workload, pass).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
