#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace e2ebench {
namespace {

// One counter per thread slot, each on its own cache line, so counting on
// the engine's pool threads does not contend on one shared line.
constexpr size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

std::atomic<bool> g_counting{false};
Slot g_slots[kSlots];
std::atomic<size_t> g_next_slot{0};

void Count() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  thread_local size_t slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count();
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count();
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  // aligned_alloc wants a size that is a multiple of the alignment.
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (rounded == 0) rounded = alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t AllocCount() {
  uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace e2ebench

// Every form is replaced, so each new/delete pair in the binary goes
// through malloc/free here (a sanitizer runtime would otherwise supply the
// forms left out, and pair its own allocations with this free).
void* operator new(std::size_t size) { return e2ebench::Allocate(size); }
void* operator new[](std::size_t size) { return e2ebench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2ebench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return e2ebench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return e2ebench::AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return e2ebench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
