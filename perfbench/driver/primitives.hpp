// Host cost of the primitives under the protocol layer, timed on fixed
// synthetic pages drawn from the benchmark seed: diff creation and
// application (mem::Diff) and the barrier flush wire format
// (dsm::FlushBatchWriter / FlushBatchReader).
#pragma once

#include <cstdint>

namespace perfbench {

struct PrimitiveRates {
  /// mem::Diff::create_into, the call the protocols' diff loops make, on
  /// 8 KiB pages with 16-byte dirty islands every 768 bytes.
  double diff_create_sparse_ns_per_page = 0;
  /// The same call with every other 8-byte word dirty (no clean block to
  /// skip).
  double diff_create_alternating_ns_per_page = 0;
  /// mem::Diff::apply of the sparse diffs.
  double diff_apply_ns_per_page = 0;
  /// FlushBatchWriter::add per sparse-diff record (begin and seal
  /// amortised over a batch).
  double flush_batch_encode_ns_per_record = 0;
  /// FlushBatchReader::next per record of the same batch.
  double flush_batch_decode_ns_per_record = 0;
};

/// Median over several timed repetitions of each primitive.
[[nodiscard]] PrimitiveRates measure_primitives(std::uint64_t seed);

}  // namespace perfbench
