#include "primitives.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <span>
#include <vector>

#include "updsm/common/error.hpp"
#include "updsm/common/rng.hpp"
#include "updsm/dsm/flush_batch.hpp"
#include "updsm/mem/diff.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using updsm::mem::Diff;

constexpr std::size_t kPageBytes = 8192;
constexpr std::size_t kPages = 8;    // 128 KiB of twin + current pages
constexpr int kRounds = 160;         // passes over the pages per repetition
constexpr int kRepetitions = 15;

using Page = std::vector<std::byte>;

Page random_page(std::uint64_t seed, std::uint64_t index) {
  Page page(kPageBytes);
  for (std::size_t i = 0; i < kPageBytes; i += 8) {
    const std::uint64_t word =
        updsm::splitmix64(seed ^ updsm::splitmix64(index * kPageBytes + i));
    std::memcpy(page.data() + i, &word, 8);
  }
  return page;
}

/// The dirty patterns of the repository's diff micro-benchmark.
Page sparse_current(const Page& twin) {
  Page cur = twin;
  for (std::size_t off = 0; off + 16 <= cur.size(); off += 768) {
    std::memset(cur.data() + off, 0x5a, 16);
  }
  return cur;
}

Page alternating_current(const Page& twin) {
  Page cur = twin;
  for (std::size_t off = 0; off < cur.size(); off += 16) {
    std::memset(cur.data() + off, 0x5a, 8);
  }
  return cur;
}

/// Median ns per item of `body`, which processes `items` items per call.
template <typename Body>
double median_ns_per_item(std::size_t items, Body&& body) {
  std::vector<double> samples;
  for (int r = 0; r < kRepetitions; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    samples.push_back(ns / static_cast<double>(items));
  }
  std::nth_element(samples.begin(), samples.begin() + kRepetitions / 2,
                   samples.end());
  return samples[kRepetitions / 2];
}

}  // namespace

PrimitiveRates measure_primitives(std::uint64_t seed) {
  std::vector<Page> twins;
  std::vector<Page> sparse;
  std::vector<Page> alternating;
  for (std::size_t p = 0; p < kPages; ++p) {
    twins.push_back(random_page(seed, p));
    sparse.push_back(sparse_current(twins.back()));
    alternating.push_back(alternating_current(twins.back()));
  }

  PrimitiveRates rates;
  const std::size_t per_call = kPages * kRounds;
  Diff scratch;
  std::uint64_t sink = 0;  // keeps the timed work observable

  rates.diff_create_sparse_ns_per_page = median_ns_per_item(per_call, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t p = 0; p < kPages; ++p) {
        Diff::create_into(scratch, twins[p], sparse[p]);
        sink += scratch.payload_bytes();
      }
    }
  });
  rates.diff_create_alternating_ns_per_page =
      median_ns_per_item(per_call, [&] {
        for (int r = 0; r < kRounds; ++r) {
          for (std::size_t p = 0; p < kPages; ++p) {
            Diff::create_into(scratch, twins[p], alternating[p]);
            sink += scratch.payload_bytes();
          }
        }
      });

  std::vector<Diff> diffs;
  for (std::size_t p = 0; p < kPages; ++p) {
    diffs.push_back(Diff::create(twins[p], sparse[p]));
  }
  std::vector<Page> targets = twins;
  rates.diff_apply_ns_per_page = median_ns_per_item(per_call, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t p = 0; p < kPages; ++p) {
        diffs[p].apply(targets[p]);
      }
    }
  });
  for (std::size_t p = 0; p < kPages; ++p) {
    UPDSM_CHECK_MSG(targets[p] == sparse[p], "diff apply mismatch");
  }

  updsm::dsm::FlushBatchWriter writer;
  rates.flush_batch_encode_ns_per_record = median_ns_per_item(per_call, [&] {
    for (int r = 0; r < kRounds; ++r) {
      writer.reset();
      writer.begin(updsm::NodeId{0});
      for (std::size_t p = 0; p < kPages; ++p) {
        writer.add(updsm::PageId{static_cast<std::uint32_t>(p)},
                   updsm::NodeId{1}, updsm::EpochId{1}, diffs[p]);
      }
      writer.seal();
      sink += writer.bytes().size();
    }
  });

  const std::span<const std::byte> batch = writer.bytes();
  rates.flush_batch_decode_ns_per_record = median_ns_per_item(per_call, [&] {
    for (int r = 0; r < kRounds; ++r) {
      updsm::dsm::FlushBatchReader reader(batch);
      updsm::dsm::FlushRecordView rec;
      std::size_t records = 0;
      while (reader.next(rec) == updsm::dsm::BatchReadStatus::Record) {
        sink += rec.payload.size();
        ++records;
      }
      UPDSM_CHECK_MSG(records == kPages, "flush batch decode lost records");
    }
  });

  UPDSM_CHECK_MSG(sink != 0, "primitive loops did no work");
  return rates;
}

}  // namespace perfbench
