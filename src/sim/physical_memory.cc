#include "src/sim/physical_memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "src/inject/fault_plan.h"

namespace ace {

namespace {

std::size_t HostPageSize() {
  static const std::size_t kSize = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return kSize;
}

std::size_t RoundUpToHostPage(std::size_t bytes) {
  const std::size_t page = HostPageSize();
  return (bytes + page - 1) / page * page;
}

}  // namespace

MappedRegion::MappedRegion(std::size_t bytes) : size_(bytes) {
  void* p = mmap(nullptr, bytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                 -1, 0);
  ACE_CHECK_MSG(p != MAP_FAILED, "mmap of the frame region failed");
  data_ = static_cast<std::uint8_t*>(p);
}

MappedRegion::~MappedRegion() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

MappedRegion::MappedRegion(MappedRegion&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

// The region this object held moves to `other`, which unmaps it when it dies.
MappedRegion& MappedRegion::operator=(MappedRegion&& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  return *this;
}

void MappedRegion::OpenReadWrite(std::size_t offset, std::size_t bytes) {
  ACE_CHECK(offset % HostPageSize() == 0 && bytes % HostPageSize() == 0);
  ACE_CHECK(offset + bytes <= size_);
  ACE_CHECK_MSG(mprotect(data_ + offset, bytes, PROT_READ | PROT_WRITE) == 0,
                "mprotect of a frame slab failed");
}

PhysicalMemory::PhysicalMemory(const MachineConfig& config)
    : page_size_(config.page_size),
      words_per_page_(config.WordsPerPage()),
      global_pages_(config.global_pages),
      local_pages_per_proc_(config.local_pages_per_proc),
      num_processors_(config.num_processors),
      latency_(config.latency),
      copy_efficiency_(config.kernel.copy_efficiency) {
  config.Validate();
  // Each slab's span is rounded up to whole host pages and the slab sits at the end
  // of it, so the guard page that follows starts exactly one byte past its last frame.
  const std::size_t guard = HostPageSize();
  const std::size_t global_bytes = static_cast<std::size_t>(global_pages_) * page_size_;
  const std::size_t local_bytes = static_cast<std::size_t>(local_pages_per_proc_) * page_size_;
  const std::size_t global_span = RoundUpToHostPage(global_bytes);
  const std::size_t local_span = RoundUpToHostPage(local_bytes);
  global_offset_ = global_span - global_bytes;
  local_stride_ = local_span + guard;
  local_offset_ = global_span + guard + (local_span - local_bytes);
  region_ = MappedRegion(global_span + guard +
                         static_cast<std::size_t>(num_processors_) * local_stride_);
  region_.OpenReadWrite(0, global_span);
  local_free_.resize(static_cast<std::size_t>(num_processors_));
  for (int p = 0; p < num_processors_; ++p) {
    region_.OpenReadWrite(global_span + guard + static_cast<std::size_t>(p) * local_stride_,
                          local_span);
    auto& free_list = local_free_[static_cast<std::size_t>(p)];
    free_list.reserve(local_pages_per_proc_);
    // Push in reverse so that frames are handed out in increasing index order.
    for (std::uint32_t i = local_pages_per_proc_; i > 0; --i) {
      free_list.push_back(i - 1);
    }
  }
}

FrameRef PhysicalMemory::AllocLocal(ProcId proc) {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  if (injector_ != nullptr &&
      injector_->ShouldInject(FaultSite::kFrameAllocTransient, proc)) {
    return FrameRef::Invalid();
  }
  auto& free_list = local_free_[static_cast<std::size_t>(proc)];
  if (free_list.empty() || AllocatedLocalFrames(proc) >= LocalLimit(proc)) {
    return FrameRef::Invalid();
  }
  std::uint32_t index = free_list.back();
  free_list.pop_back();
  return FrameRef::Local(proc, index);
}

void PhysicalMemory::FreeLocal(FrameRef frame) {
  ACE_CHECK(frame.valid() && frame.is_local());
  ACE_CHECK(frame.node < num_processors_);
  ACE_CHECK(frame.index < local_pages_per_proc_);
  local_free_[static_cast<std::size_t>(frame.node)].push_back(frame.index);
}

std::uint32_t PhysicalMemory::FreeLocalFrames(ProcId proc) const {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  std::uint32_t free_frames =
      static_cast<std::uint32_t>(local_free_[static_cast<std::size_t>(proc)].size());
  std::uint32_t limit = LocalLimit(proc);
  std::uint32_t allocated = local_pages_per_proc_ - free_frames;
  if (allocated >= limit) {
    return 0;
  }
  std::uint32_t headroom = limit - allocated;
  return headroom < free_frames ? headroom : free_frames;
}

std::uint32_t PhysicalMemory::AllocatedLocalFrames(ProcId proc) const {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  return local_pages_per_proc_ -
         static_cast<std::uint32_t>(local_free_[static_cast<std::size_t>(proc)].size());
}

void PhysicalMemory::SetLocalLimit(ProcId proc, std::uint32_t limit) {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  if (local_limit_.empty()) {
    local_limit_.assign(static_cast<std::size_t>(num_processors_), local_pages_per_proc_);
  }
  local_limit_[static_cast<std::size_t>(proc)] =
      limit < local_pages_per_proc_ ? limit : local_pages_per_proc_;
}

std::uint32_t PhysicalMemory::LocalLimit(ProcId proc) const {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  if (local_limit_.empty()) {
    return local_pages_per_proc_;
  }
  return local_limit_[static_cast<std::size_t>(proc)];
}

TimeNs PhysicalMemory::CopyPage(FrameRef src, FrameRef dst, ProcId copier) {
  ACE_CHECK(src.valid() && dst.valid());
  ACE_CHECK(!(src == dst));
  std::memcpy(FrameData(dst), FrameData(src), page_size_);
  TimeNs per_word = latency_.Cost(src.ClassFor(copier), AccessKind::kFetch) +
                    latency_.Cost(dst.ClassFor(copier), AccessKind::kStore);
  return static_cast<TimeNs>(static_cast<double>(per_word) * words_per_page_ * copy_efficiency_);
}

void PhysicalMemory::PoisonLocal(ProcId proc, std::uint8_t byte) {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  std::memset(FrameData(FrameRef::Local(proc, 0)), byte,
              static_cast<std::size_t>(local_pages_per_proc_) * page_size_);
}

TimeNs PhysicalMemory::ZeroPage(FrameRef frame, ProcId zeroer) {
  ACE_CHECK(frame.valid());
  std::memset(FrameData(frame), 0, page_size_);
  TimeNs per_word = latency_.Cost(frame.ClassFor(zeroer), AccessKind::kStore);
  return static_cast<TimeNs>(static_cast<double>(per_word) * words_per_page_ * copy_efficiency_);
}

}  // namespace ace
