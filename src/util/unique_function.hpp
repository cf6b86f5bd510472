// Move-only type-erased callable (a C++20-compatible subset of C++23's
// std::move_only_function) with a small-buffer optimization.
//
// Task bodies use this instead of std::function so callables may capture
// move-only state (std::unique_ptr, file handles, promises) — std::function
// requires copyability even when no copy ever happens.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace gran {

template <typename Signature>
class unique_function;

template <typename R, typename... Args>
class unique_function<R(Args...)> {
  // Small-buffer size: enough for a lambda capturing several pointers.
  static constexpr std::size_t k_sbo_size = 48;
  static constexpr std::size_t k_sbo_align = alignof(std::max_align_t);

 public:
  unique_function() noexcept = default;
  unique_function(std::nullptr_t) noexcept {}

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, unique_function> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  unique_function(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= k_sbo_size && alignof(Fn) <= k_sbo_align &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
      inline_ = true;
    } else {
      heap_ = new Fn(std::forward<F>(f));
    }
    vtable_ = &vtable_for<Fn>;
  }

  unique_function(unique_function&& other) noexcept { move_from(std::move(other)); }

  unique_function& operator=(unique_function&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  unique_function& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  unique_function(const unique_function&) = delete;
  unique_function& operator=(const unique_function&) = delete;

  ~unique_function() { reset(); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  R operator()(Args... args) {
    GRAN_ASSERT_MSG(vtable_ != nullptr, "call of empty unique_function");
    return vtable_->invoke(target(), std::forward<Args>(args)...);
  }

  void swap(unique_function& other) noexcept {
    unique_function tmp(std::move(other));
    other = std::move(*this);
    *this = std::move(tmp);
  }

 private:
  struct vtable {
    R (*invoke)(void*, Args&&...);
    // Moves the target from `from` into `to_buffer` (inline targets) —
    // heap targets move the pointer instead and never use this.
    void (*move_construct)(void* to_buffer, void* from);
    // Destroys an inline target in place.
    void (*destroy)(void*);
    // Destroys and frees a heap target through the matching `delete`, so an
    // over-aligned Fn goes back through the aligned operator delete.
    void (*destroy_heap)(void*);
  };

  template <typename Fn>
  static constexpr vtable vtable_for{
      [](void* target, Args&&... args) -> R {
        return (*static_cast<Fn*>(target))(std::forward<Args>(args)...);
      },
      [](void* to_buffer, void* from) {
        ::new (to_buffer) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* target) { static_cast<Fn*>(target)->~Fn(); },
      [](void* target) { delete static_cast<Fn*>(target); },
  };

  void* target() noexcept {
    return inline_ ? static_cast<void*>(buffer_) : heap_;
  }

  void move_from(unique_function&& other) noexcept {
    vtable_ = other.vtable_;
    inline_ = other.inline_;
    if (vtable_ != nullptr) {
      if (inline_) {
        vtable_->move_construct(buffer_, other.buffer_);
      } else {
        heap_ = other.heap_;
      }
    }
    other.vtable_ = nullptr;
    other.inline_ = false;
    other.heap_ = nullptr;
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (inline_) {
        vtable_->destroy(buffer_);
      } else {
        vtable_->destroy_heap(heap_);
      }
    }
    vtable_ = nullptr;
    inline_ = false;
    heap_ = nullptr;
  }

  const vtable* vtable_ = nullptr;
  bool inline_ = false;
  union {
    alignas(k_sbo_align) unsigned char buffer_[k_sbo_size];
    void* heap_;
  };
};

}  // namespace gran
