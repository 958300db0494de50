// Stackful user-space execution contexts for the machine's scheduler.
//
// Every simulated rank runs on a stack of its own, on the thread of the
// worker that owns its block of ranks (with one worker, the thread that
// calls Machine::run). Handing execution from one rank of a block to the
// next is a context switch on that thread, not a wakeup of another OS
// thread through a mutex and a condition variable. A fiber never migrates:
// it always resumes on the thread it first ran on.
//
// On x86-64 a switch saves and restores only the System V callee-saved
// state (rbp, rbx, r12-r15, the MXCSR and the x87 control word) on the
// fiber's own stack (fiber_switch.S); it leaves the signal mask alone,
// which every fiber of a thread shares. Other ISAs use swapcontext.
//
// Besides the registers and the stack, a switch carries the state that the
// C++ runtime and the sanitizers keep per thread:
//   * the exception-handling globals (the caught-exception chain and the
//     uncaught count): a rank that blocks inside a catch handler must find
//     its own chain when it resumes, not the chain of whichever rank ran in
//     between;
//   * AddressSanitizer's notion of the current stack, and ThreadSanitizer's
//     current fiber, when the build is instrumented.
//
// Internal to picpar_sim; not part of the public API.
#pragma once

#include <cstddef>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace picpar::sim::detail {

class Fiber {
public:
  using Entry = void (*)(void* arg);

  /// The calling thread's own context. It owns no stack; it is the place
  /// a worker switches away from and back to.
  Fiber();
  /// A suspended context that runs entry(arg) on a fresh stack of at least
  /// `stack_bytes` (plus one guard page) the first time it is switched to.
  /// `entry` must not return: it leaves through exit_to. Throws
  /// std::system_error when the stack cannot be mapped.
  Fiber(std::size_t stack_bytes, Entry entry, void* arg);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Suspend the running context `from` and resume `to`. Returns when some
  /// other context switches back to `from`.
  static void switch_to(Fiber& from, Fiber& to);
  /// Leave the running context `from` for good and resume `to`. For the
  /// last switch out of a fiber whose entry function has finished its work.
  [[noreturn]] static void exit_to(Fiber& from, Fiber& to);

  /// Stack size the scheduler gives each rank: 8 MiB, what a thread gets
  /// by default. Only the pages a rank actually touches become resident.
  static constexpr std::size_t kDefaultStackBytes = std::size_t{8} << 20;

private:
  /// Mirror of the C++ ABI's per-thread exception-handling globals
  /// (__cxa_eh_globals in both libstdc++ and libc++abi).
  struct EhGlobals {
    void* caught_exceptions = nullptr;
    unsigned int uncaught_exceptions = 0;
#if defined(__ARM_EABI_UNWINDER__)
    void* propagating_exceptions = nullptr;
#endif
  };

  /// First code a new fiber runs: calls entry_(arg_), which never returns.
  static void start(Fiber* self);
  static void prepare_switch(Fiber& from, Fiber& to, bool leaving);
  void finish_switch();

#if defined(__x86_64__)
  void* sp_ = nullptr;  // stack pointer saved when this context last left
#else
  static void start_split(unsigned hi, unsigned lo);  // makecontext entry
  ucontext_t ctx_{};
#endif
  EhGlobals eh_{};
  void* map_ = nullptr;        // stack mapping including the guard page
  std::size_t map_bytes_ = 0;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  // Sanitizer bookkeeping (unused in uninstrumented builds).
  const void* stack_bottom_ = nullptr;
  std::size_t stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;
  Fiber* resumed_from_ = nullptr;
  void* tsan_fiber_ = nullptr;
};

}  // namespace picpar::sim::detail
