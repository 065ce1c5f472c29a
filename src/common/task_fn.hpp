// Small-buffer-optimized move-only callable for task queues.
//
// std::function<void()> heap-allocates any capture larger than its
// (implementation-defined, typically two-pointer) inline buffer, and
// requires copyability — so every task submitted to a pool paid an
// allocation plus a copyable-wrapper tax. TaskFn is the task-slot
// replacement used by WorkStealingPool: 48 bytes of
// inline storage (a pool task captures a couple of shared_ptrs and a
// this pointer; see bench/micro_components.cpp for the measured
// allocation-count drop), move-only so tasks can own unique_ptrs, and
// a two-pointer vtable (invoke/move-destroy) instead of RTTI.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/status.hpp"

namespace entk {

class TaskFn {
 public:
  /// Inline capture budget. Callables at most this large (and no more
  /// aligned than max_align_t) are stored in place; larger ones fall
  /// back to one heap allocation, exactly like std::function.
  static constexpr std::size_t kInlineSize = 48;

  /// Whether a callable of type F is stored inline (bench/test hook).
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineSize &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  TaskFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TaskFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  TaskFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (stores_inline<Fn>) {
      ::new (static_cast<void*>(storage_.buffer)) Fn(std::forward<F>(fn));
      ops_ = &inline_ops<Fn>;
    } else {
      storage_.heap = new Fn(std::forward<F>(fn));
      ops_ = &heap_ops<Fn>;
    }
  }

  TaskFn(TaskFn&& other) noexcept { move_from(other); }

  TaskFn& operator=(TaskFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  TaskFn(const TaskFn&) = delete;
  TaskFn& operator=(const TaskFn&) = delete;

  ~TaskFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    ENTK_CHECK(ops_ != nullptr, "invoking an empty TaskFn");
    ops_->invoke(this);
  }

  void reset() {
    if (ops_ == nullptr) return;
    ops_->destroy(this);
    ops_ = nullptr;
  }

 private:
  /// Type-erased operations: a static table per callable type. `move`
  /// transfers other's callable into this (uninitialised) TaskFn and
  /// destroys other's copy.
  struct Ops {
    void (*invoke)(TaskFn*);
    void (*move)(TaskFn* to, TaskFn* from) noexcept;
    void (*destroy)(TaskFn*);
  };

  template <typename Fn>
  Fn* inline_target() {
    return std::launder(reinterpret_cast<Fn*>(storage_.buffer));
  }

  template <typename Fn>
  static void inline_invoke(TaskFn* self) {
    (*self->inline_target<Fn>())();
  }
  template <typename Fn>
  static void inline_move(TaskFn* to, TaskFn* from) noexcept {
    Fn* source = from->inline_target<Fn>();
    ::new (static_cast<void*>(to->storage_.buffer)) Fn(std::move(*source));
    source->~Fn();
  }
  template <typename Fn>
  static void inline_destroy(TaskFn* self) {
    self->inline_target<Fn>()->~Fn();
  }

  template <typename Fn>
  static void heap_invoke(TaskFn* self) {
    (*static_cast<Fn*>(self->storage_.heap))();
  }
  static void heap_move(TaskFn* to, TaskFn* from) noexcept {
    to->storage_.heap = from->storage_.heap;
    from->storage_.heap = nullptr;
  }
  template <typename Fn>
  static void heap_destroy(TaskFn* self) {
    delete static_cast<Fn*>(self->storage_.heap);
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {&inline_invoke<Fn>, &inline_move<Fn>,
                                     &inline_destroy<Fn>};

  template <typename Fn>
  static constexpr Ops heap_ops = {&heap_invoke<Fn>, &heap_move,
                                   &heap_destroy<Fn>};

  void move_from(TaskFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(this, &other);
      other.ops_ = nullptr;
    }
  }

  union Storage {
    alignas(std::max_align_t) unsigned char buffer[kInlineSize];
    void* heap;
  };
  Storage storage_;
  const Ops* ops_ = nullptr;
};

}  // namespace entk
