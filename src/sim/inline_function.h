/**
 * @file
 * Small-buffer move-only callable for simulator events.
 *
 * The discrete-event hot path schedules millions of `void()` callbacks
 * per sweep. `std::function` only inline-stores tiny callables (one or
 * two pointers on mainstream ABIs), so the typical simulator lambda —
 * a `this` pointer plus a couple of captured ints or a moved-in
 * continuation — pays one heap allocation per event. InlineFunction
 * widens the inline buffer so every callback the simulator actually
 * creates stays in situ; oversized callables degrade gracefully to the
 * heap. EventFn is the `void()` instantiation the event queue stores;
 * task markers and completion hooks use the `void(TimeNs)` one.
 */

#ifndef AITAX_SIM_INLINE_FUNCTION_H
#define AITAX_SIM_INLINE_FUNCTION_H

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace aitax::sim {

template <typename Signature>
class InlineFunction; // primary template left undefined

/**
 * Move-only `R(Args...)` callable with a wide small-buffer
 * optimization.
 *
 * Invariants: invoking an empty InlineFunction is undefined (the event
 * queue never stores empty callbacks); relocation is a move-construct
 * plus destroy of the source, so captured state moves exactly once. A
 * trivially copyable callable (and the heap fallback's pointer) is
 * relocated by copying the buffer's bytes, and has nothing to destroy.
 */
template <typename R, typename... Args>
class InlineFunction<R(Args...)>
{
  public:
    /** Inline storage; sized for a capture of ~6 pointers. */
    static constexpr std::size_t kInlineSize = 48;

    InlineFunction() noexcept = default;

    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>,
                                 InlineFunction> &&
                 std::is_invocable_r_v<R, std::remove_cvref_t<F> &,
                                       Args...>)
    InlineFunction(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        return ops->invoke(buf, std::forward<Args>(args)...);
    }

    /**
     * Build @p f in this empty InlineFunction: a callable is constructed
     * in place, with no temporary to relocate; an rvalue InlineFunction
     * is moved in. An lvalue InlineFunction is refused at compile time,
     * since it is move-only.
     */
    template <typename F>
        requires(std::is_same_v<F, InlineFunction> ||
                 std::is_constructible_v<InlineFunction, F>)
    void
    emplace(F &&f)
    {
        assert(ops == nullptr && "emplace into a held InlineFunction");
        if constexpr (std::is_same_v<F, InlineFunction>)
            moveFrom(f);
        else
            construct(std::forward<F>(f));
    }

    /** Destroy the held callable, leaving the InlineFunction empty. */
    void
    reset() noexcept
    {
        if (ops != nullptr) {
            if (ops->destroy != nullptr)
                ops->destroy(buf);
            ops = nullptr;
        }
    }

  private:
    template <typename F>
    void
    construct(F &&f)
    {
        // InlineFunction *is* the sanctioned owner of placement-new
        // here: the whole point of this class is keeping the hot path
        // free of the heap, and the oversized-callable fallback is the
        // one deliberate allocation.
        using Fn = std::remove_cvref_t<F>;
        if constexpr (sizeof(Fn) <= kInlineSize &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            // aitax-lint: allow(raw-new-delete)
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(buf))  // aitax-lint: allow(raw-new-delete)
                Fn *(new Fn(std::forward<F>(f))); // aitax-lint: allow(raw-new-delete)
            ops = &heapOps<Fn>;
        }
    }

    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /**
         * Move-construct dst from src, then destroy src; null when
         * copying the buffer relocates the callable.
         */
        void (*relocate)(void *dst, void *src) noexcept;
        /** Null when there is nothing to destroy. */
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr bool kCopyBytes = std::is_trivially_copyable_v<Fn>;

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        kCopyBytes<Fn> ? nullptr : +[](void *dst, void *src) noexcept {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s)); // aitax-lint: allow(raw-new-delete)
            s->~Fn();
        },
        kCopyBytes<Fn> ? nullptr : +[](void *p) noexcept {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
    };

    /** The buffer holds an owning Fn *, which relocates as bytes. */
    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p, Args &&...args) -> R {
            return (**std::launder(reinterpret_cast<Fn **>(p)))(
                std::forward<Args>(args)...);
        },
        nullptr,
        [](void *p) noexcept {
            delete *std::launder(reinterpret_cast<Fn **>(p)); // aitax-lint: allow(raw-new-delete)
        },
    };

    // GCC 12 flags `other.ops` as maybe-uninitialized when a
    // vector<variant<...>> reallocation move-constructs elements into
    // fresh storage (it conflates the uninitialized destination with
    // the fully-constructed source). `ops` has a default member
    // initializer, so every constructed InlineFunction has it set.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
    void
    moveFrom(InlineFunction &other) noexcept
    {
        if (other.ops != nullptr) {
            if (other.ops->relocate != nullptr)
                other.ops->relocate(buf, other.buf);
            else
                std::memcpy(buf, other.buf, kInlineSize);
            ops = other.ops;
            other.ops = nullptr;
        }
    }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

    /** Zero-filled, so a whole-buffer copy never reads an unset byte. */
    alignas(std::max_align_t) unsigned char buf[kInlineSize]{};
    const Ops *ops = nullptr;
};

/** The event queue's callback type. */
using EventFn = InlineFunction<void()>;

} // namespace aitax::sim

#endif // AITAX_SIM_INLINE_FUNCTION_H
