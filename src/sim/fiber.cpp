#include "sim/fiber.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#define PICPAR_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PICPAR_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define PICPAR_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PICPAR_FIBER_TSAN 1
#endif
#endif

#ifdef PICPAR_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef PICPAR_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// fiber_switch.S
extern "C" {
void picpar_fiber_switch(void** save_sp, void* load_sp);
void picpar_fiber_boot();
}
#endif

namespace picpar::sim::detail {

namespace {

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

[[noreturn]] void fail(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Fiber::Fiber() {
#ifdef PICPAR_FIBER_TSAN
  tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

Fiber::Fiber(std::size_t stack_bytes, Entry entry, void* arg)
    : entry_(entry), arg_(arg) {
  const std::size_t page = page_bytes();
  const std::size_t usable = (stack_bytes + page - 1) / page * page;
  map_bytes_ = usable + page;
  // Reserve address space only: pages become resident as the rank's stack
  // actually grows into them.
  map_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    fail("Fiber: cannot map a rank stack");
  }
  // Guard page at the low end: an overflow faults instead of running into
  // the neighbouring mapping.
  bool ok = mprotect(map_, page, PROT_NONE) == 0;
#if !defined(__x86_64__)
  ok = ok && getcontext(&ctx_) == 0;
#endif
  if (!ok) {
    const int err = errno;
    munmap(map_, map_bytes_);
    map_ = nullptr;
    errno = err;
    fail("Fiber: cannot set up a rank stack");
  }
  char* bottom = static_cast<char*>(map_) + page;
  stack_bottom_ = bottom;
  stack_size_ = usable;
#if defined(__x86_64__)
  // The frame picpar_fiber_switch pops (see fiber_switch.S), seeded so that
  // the first switch here returns into the boot stub with r12 = start,
  // rbx = this and rbp = 0, on a 16-byte-aligned stack. The new context
  // starts with this thread's floating-point control state, as a context
  // that getcontext captured would.
  struct BootFrame {
    std::uint64_t fpcw = 0, mxcsr = 0;
    void *r15 = nullptr, *r14 = nullptr, *r13 = nullptr;
    void (*r12)(Fiber*) = nullptr;
    Fiber* rbx = nullptr;
    void* rbp = nullptr;
    void (*ret)() = nullptr;
  };
  // 72 bytes below a page-aligned top: after the switch's ret the boot stub
  // runs on a 16-byte-aligned stack.
  static_assert(sizeof(BootFrame) == 72);
  std::uint16_t fpcw = 0;
  __asm__("fnstcw %0" : "=m"(fpcw));
  auto* frame = reinterpret_cast<BootFrame*>(bottom + usable) - 1;
  *frame = BootFrame{.fpcw = fpcw,
                     .mxcsr = __builtin_ia32_stmxcsr(),
                     .r12 = &Fiber::start,
                     .rbx = this,
                     .ret = &picpar_fiber_boot};
  sp_ = frame;
#else
  ctx_.uc_stack.ss_sp = bottom;
  ctx_.uc_stack.ss_size = usable;
  ctx_.uc_link = nullptr;
  // makecontext passes int-sized arguments only: split the pointer.
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::start_split), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffU));
#endif
#ifdef PICPAR_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  if (map_ == nullptr) return;
#ifdef PICPAR_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#ifdef PICPAR_FIBER_ASAN
  // A fiber leaves through exit_to without popping its frames, so their
  // redzones are still poisoned; clear them before the range is reused.
  ASAN_UNPOISON_MEMORY_REGION(stack_bottom_, stack_size_);
#endif
  munmap(map_, map_bytes_);
}

void Fiber::start(Fiber* self) {
  self->finish_switch();
  self->entry_(self->arg_);
  std::abort();  // entry functions leave through exit_to, never by returning
}

#if !defined(__x86_64__)
void Fiber::start_split(unsigned hi, unsigned lo) {
  start(reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo)));
}
#endif

void Fiber::prepare_switch(Fiber& from, Fiber& to, bool leaving) {
  // Park the running context's exception-handling globals and install the
  // resumed context's.
  void* globals = abi::__cxa_get_globals();
  std::memcpy(&from.eh_, globals, sizeof(EhGlobals));
  std::memcpy(globals, &to.eh_, sizeof(EhGlobals));
  to.resumed_from_ = &from;
#ifdef PICPAR_FIBER_ASAN
  // A context that is leaving for good passes no fake-stack slot, which
  // tells ASan to release its fake stack.
  __sanitizer_start_switch_fiber(leaving ? nullptr : &from.asan_fake_stack_,
                                 to.stack_bottom_, to.stack_size_);
#else
  (void)leaving;
#endif
#ifdef PICPAR_FIBER_TSAN
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
}

void Fiber::finish_switch() {
#ifdef PICPAR_FIBER_ASAN
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &bottom, &size);
  // A thread's own context learns its stack bounds from the first switch
  // away from it; fibers know theirs from the mapping.
  if (resumed_from_ != nullptr && resumed_from_->map_ == nullptr) {
    resumed_from_->stack_bottom_ = bottom;
    resumed_from_->stack_size_ = size;
  }
#endif
}

void Fiber::switch_to(Fiber& from, Fiber& to) {
  prepare_switch(from, to, false);
#if defined(__x86_64__)
  picpar_fiber_switch(&from.sp_, to.sp_);
#else
  // swapcontext fails only on a malformed context, which this class never
  // builds; there is no state to unwind to if it did.
  if (swapcontext(&from.ctx_, &to.ctx_) != 0) std::abort();
#endif
  from.finish_switch();
}

void Fiber::exit_to(Fiber& from, Fiber& to) {
  prepare_switch(from, to, true);
#if defined(__x86_64__)
  void* discarded = nullptr;  // nothing resumes a context that has left
  picpar_fiber_switch(&discarded, to.sp_);
#else
  setcontext(&to.ctx_);
#endif
  std::abort();  // the switch away from a finished context never returns
}

}  // namespace picpar::sim::detail
