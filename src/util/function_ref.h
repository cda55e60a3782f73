// FunctionRef: a non-owning reference to a callable, for callbacks that
// are called during the call they are passed to and never stored.
//
// Unlike std::function it never allocates and never copies the callable:
// it holds a pointer to it and one to a call thunk. The referenced callable
// must outlive the FunctionRef, so pass lambdas directly as arguments; do
// not keep a FunctionRef built from a temporary. A default-constructed
// FunctionRef is empty and tests false.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace atis {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* object_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace atis
