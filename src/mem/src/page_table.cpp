#include "updsm/mem/page_table.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <sstream>

namespace updsm::mem {

PageTable::PageTable(std::uint32_t num_pages, std::uint32_t page_size)
    : num_pages_(num_pages), page_size_(page_size) {
  UPDSM_REQUIRE(num_pages > 0, "page table needs at least one page");
  UPDSM_REQUIRE(page_size >= 64 && (page_size & (page_size - 1)) == 0,
                "page size must be a power of two >= 64, got " << page_size);
  // mmap directly rather than calloc: a heap-served block would be memset
  // page by page, committing the whole segment up front.
  void* base = ::mmap(nullptr, segment_bytes(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    std::ostringstream os;
    os << "cannot reserve a node's shared segment of " << num_pages
       << " pages x " << page_size << " B = " << segment_bytes()
       << " bytes: " << std::strerror(err);
    throw UsageError(os.str());
  }
  data_ = static_cast<std::byte*>(base);
  // Under a host policy of transparent huge pages "always", one write would
  // commit a whole huge page of neighbouring frames. Advisory: a host
  // without THP rejects it harmlessly.
  (void)::madvise(data_, segment_bytes(), MADV_NOHUGEPAGE);
  try {
    prot_.assign(num_pages, Protect::None);
  } catch (...) {
    ::munmap(data_, segment_bytes());
    throw;
  }
}

PageTable::~PageTable() { ::munmap(data_, segment_bytes()); }

}  // namespace updsm::mem
