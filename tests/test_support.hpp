// Shared test helpers: a fault plan that loses flush-class messages, and
// field-by-field comparison of every protocol counter and network
// statistic (the determinism oracles compare *all* observables, so a new
// field must be added here -- the static_asserts below fail otherwise).
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "updsm/dsm/stats.hpp"
#include "updsm/sim/fault_plan.hpp"
#include "updsm/sim/network.hpp"

namespace updsm::testing_support {

/// A plan that drops each flush-class message -- per-page flush, flush
/// batch, relay hop -- with probability `rate`. Unreliable pushes stay
/// lost; reliable diff-to-home flushes retry through the loss.
inline sim::FaultSpec flush_loss(double rate) {
  sim::FaultSpec spec;
  for (const sim::MsgKind kind : {sim::MsgKind::Flush, sim::MsgKind::FlushBatch,
                                  sim::MsgKind::FlushRelay}) {
    sim::FaultRule rule;
    rule.kind = static_cast<int>(kind);
    rule.drop = rate;
    spec.rules.push_back(rule);
  }
  return spec;
}

// Every ProtocolCounters field, in declaration order.
#define UPDSM_PROTOCOL_COUNTER_FIELDS(X)                                     \
  X(diffs_created) X(zero_diffs) X(remote_misses) X(read_faults)             \
  X(write_faults) X(twins_created) X(updates_sent) X(updates_received)       \
  X(updates_stored) X(updates_applied) X(updates_ignored) X(pages_fetched)   \
  X(migrations) X(retained_diff_bytes_peak) X(gc_rounds)                     \
  X(overdrive_mispredictions) X(private_entries) X(private_exits)            \
  X(reliable_retries) X(dup_suppressed) X(recovery_faults) X(node_stalls)    \
  X(flush_batches) X(flush_batch_records) X(flush_batch_records_max)         \
  X(flush_batch_records_min) X(flush_batch_header_bytes_saved)               \
  X(relay_batches) X(relay_messages) X(relay_forwarded_bytes)                \
  X(relay_subtree_losses) X(adaptive_switches) X(adaptive_window_evictions)  \
  X(async_steps) X(async_refreshes) X(async_invalidations) X(async_throttles)

#define UPDSM_COUNT_FIELD(f) +1
static_assert(sizeof(dsm::ProtocolCounters) ==
                  (0 UPDSM_PROTOCOL_COUNTER_FIELDS(UPDSM_COUNT_FIELD)) *
                      sizeof(dsm::ProtocolCounters::Cell),
              "ProtocolCounters gained a field: add it to the list above");
#undef UPDSM_COUNT_FIELD

static_assert(sizeof(sim::MsgCounter) == 4 * sizeof(std::uint64_t) &&
                  sizeof(sim::NetworkStats) ==
                      sizeof(sim::MsgCounter) * sim::kMsgKindCount +
                          2 * sizeof(std::uint64_t),
              "NetworkStats gained a field: compare it in expect_same_net");

inline void expect_same_counters(const dsm::ProtocolCounters& a,
                                 const dsm::ProtocolCounters& b,
                                 const std::string& label) {
#define UPDSM_EXPECT_FIELD(f) \
  EXPECT_EQ(a.f.load(), b.f.load()) << label << " counter " #f;
  UPDSM_PROTOCOL_COUNTER_FIELDS(UPDSM_EXPECT_FIELD)
#undef UPDSM_EXPECT_FIELD
}

inline void expect_same_net(const sim::NetworkStats& a,
                            const sim::NetworkStats& b,
                            const std::string& label) {
  for (std::size_t k = 0; k < sim::kMsgKindCount; ++k) {
    const char* kind = sim::to_string(static_cast<sim::MsgKind>(k));
    EXPECT_EQ(a.by_kind[k].count, b.by_kind[k].count) << label << " " << kind;
    EXPECT_EQ(a.by_kind[k].bytes, b.by_kind[k].bytes) << label << " " << kind;
    EXPECT_EQ(a.by_kind[k].dropped, b.by_kind[k].dropped)
        << label << " " << kind;
    EXPECT_EQ(a.by_kind[k].records, b.by_kind[k].records)
        << label << " " << kind;
  }
  EXPECT_EQ(a.injected_dups, b.injected_dups) << label;
  EXPECT_EQ(a.injected_delays, b.injected_delays) << label;
}

}  // namespace updsm::testing_support
