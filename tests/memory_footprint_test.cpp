// Per-node memory follows the pages a node touches, not nodes x segment:
// a 1024-node jacobi run under bar-u must stay bit-exact against the
// sequential baseline while its peak RSS stays a small fraction of the
// 4.2 GB that 1024 dense zero-filled segments would commit.
//
// This binary holds exactly one test, because ru_maxrss is the peak of the
// whole process.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>

#include "updsm/harness/experiment.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UPDSM_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UPDSM_SANITIZED_BUILD 1
#endif
#endif

namespace updsm::harness {
namespace {

// 10 % of the 4.2 GB that dense per-node segments needed for this run.
constexpr long kMaxRssKb = 420L * 1024;

TEST(MemoryFootprintTest, ThousandNodeJacobiIsBitExactAndSmall) {
  apps::AppParams params;
  params.warmup_iterations = 2;
  params.measured_iterations = 3;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 1024;
  cfg.barrier_fanout = 4;
  const RunResult seq = run_sequential("jacobi", cfg, params);
  const RunResult par =
      run_app("jacobi", protocols::ProtocolKind::BarU, cfg, params);
  EXPECT_EQ(par.nodes, 1024);
  EXPECT_EQ(par.checksum, seq.checksum) << "1024-node run is not bit-exact";

  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  std::printf("peak RSS %ld MB\n", usage.ru_maxrss / 1024);
#ifndef UPDSM_SANITIZED_BUILD
  // Sanitizer shadow memory inflates RSS, so the bound holds only in plain
  // builds; sanitized builds still check the result above.
  EXPECT_LE(usage.ru_maxrss, kMaxRssKb);
#endif
}

}  // namespace
}  // namespace updsm::harness
