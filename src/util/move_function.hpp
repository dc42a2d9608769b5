// Small-buffer-optimized move-only callable, signature void().
//
// The event engine schedules tens of millions of callbacks per simulated
// experiment; `std::function` pays for copyability it never uses and its
// small-object threshold (16 B on libstdc++) spills the common
// "this + two captures" lambda to the heap. MoveFunction stores any
// callable up to kInlineSize bytes inline and falls back to a single
// heap allocation for larger ones, so a per-event callback over 48 B
// costs one allocation per event: tests/alloc/ counts allocations in
// real runs and fails on it. Trivially-copyable callables (lambdas
// capturing pointers and scalars — the overwhelming majority) move by
// memcpy with no indirect call and destroy as a no-op. Move-only, so
// it also holds non-copyable callables such as `std::packaged_task` —
// the thread pool's work items use it too.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace pinsim::util {

class MoveFunction {
 public:
  /// Inline storage: sized for a lambda capturing this + a handful of
  /// words. Larger callables are heap-allocated transparently.
  static constexpr std::size_t kInlineSize = 48;

  MoveFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, MoveFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  MoveFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Decayed = std::decay_t<F>;
    if constexpr (fits_inline<Decayed>) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      ops_ = &inline_ops<Decayed>;
      kind_ = std::is_trivially_copyable_v<Decayed> &&
                      std::is_trivially_destructible_v<Decayed>
                  ? Kind::kInlineTrivial
                  : Kind::kInlineManaged;
    } else {
      ::new (static_cast<void*>(storage_))
          Decayed*(new Decayed(std::forward<F>(fn)));
      ops_ = &heap_ops<Decayed>;
      kind_ = Kind::kHeap;
    }
  }

  MoveFunction(MoveFunction&& other) noexcept { steal(other); }

  MoveFunction& operator=(MoveFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  MoveFunction(const MoveFunction&) = delete;
  MoveFunction& operator=(const MoveFunction&) = delete;

  ~MoveFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  enum class Kind : unsigned char {
    kInlineTrivial,  // moves by memcpy, no destructor
    kInlineManaged,  // moves/destroys through ops_
    kHeap,           // stored pointer memcpys; destroy deletes the node
  };

  struct Ops {
    void (*invoke)(unsigned char* storage);
    /// Move the callable from `from` into raw `to` and destroy `from`.
    /// Unused (null) for kinds that relocate by memcpy.
    void (*relocate)(unsigned char* from, unsigned char* to);
    /// Destroy the callable. Unused (null) for kInlineTrivial.
    void (*destroy)(unsigned char* storage);
  };

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineSize &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  static F* inline_target(unsigned char* storage) {
    return std::launder(reinterpret_cast<F*>(storage));
  }

  template <typename F>
  static constexpr Ops inline_ops = {
      [](unsigned char* storage) { (*inline_target<F>(storage))(); },
      [](unsigned char* from, unsigned char* to) {
        ::new (static_cast<void*>(to)) F(std::move(*inline_target<F>(from)));
        inline_target<F>(from)->~F();
      },
      [](unsigned char* storage) { inline_target<F>(storage)->~F(); },
  };

  template <typename F>
  static F*& heap_target(unsigned char* storage) {
    return *std::launder(reinterpret_cast<F**>(storage));
  }

  template <typename F>
  static constexpr Ops heap_ops = {
      [](unsigned char* storage) { (*heap_target<F>(storage))(); },
      nullptr,  // the owning pointer relocates by memcpy
      [](unsigned char* storage) { delete heap_target<F>(storage); },
  };

  /// Take `other`'s callable; `other` becomes empty. Assumes *this is
  /// currently empty.
  // Trivial and heap-owning callables relocate by copying the whole
  // inline buffer; bytes past the callable's own size are indeterminate
  // and never read, which GCC's interprocedural -W(maybe-)uninitialized
  // cannot prove once steal() inlines into a caller holding a temporary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  void steal(MoveFunction& other) noexcept {
    ops_ = other.ops_;
    kind_ = other.kind_;
    if (ops_ != nullptr) {
      if (kind_ == Kind::kInlineManaged) {
        ops_->relocate(other.storage_, storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  void reset() {
    if (ops_ != nullptr) {
      if (kind_ != Kind::kInlineTrivial) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
  Kind kind_ = Kind::kInlineTrivial;
};

}  // namespace pinsim::util
