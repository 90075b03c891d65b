/**
 * @file
 * Small-buffer move-only callable: the event queue's callback type.
 *
 * std::function only holds tiny captures inline (16 bytes with
 * libstdc++), so the simulator's larger hot-path closures -- e.g. a
 * scratchpad response carrying a nested std::function callback, or a
 * MAC wire-completion carrying frame metadata -- each cost a heap
 * allocation per scheduled event.  SmallFn raises the inline capacity
 * so every closure the kernel schedules fits in the slot table without
 * touching the allocator, and is move-only so captured state (frame
 * payload vectors, completion callbacks) moves through the queue
 * instead of being copied.
 */

#ifndef TENGIG_SIM_SMALL_FN_HH
#define TENGIG_SIM_SMALL_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tengig {

template <typename Sig, std::size_t Inline = 64>
class SmallFn;

template <typename R, typename... Args, std::size_t Inline>
class SmallFn<R(Args...), Inline>
{
  public:
    SmallFn() noexcept = default;
    SmallFn(std::nullptr_t) noexcept {}

    /**
     * Wrap any callable.  A null std::function (or null function
     * pointer) converts to an *empty* SmallFn so callers can keep
     * detecting missing callbacks through the type erasure.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFn(F &&f)
    {
        construct(std::forward<F>(f));
    }

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    explicit operator bool() const noexcept { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        return ops->call(buf, std::forward<Args>(args)...);
    }

    void
    reset() noexcept
    {
        if (ops) {
            if (ops->destroy)
                ops->destroy(buf);
            ops = nullptr;
        }
    }

    /**
     * Replace the held callable with @p f, built straight into this
     * object's buffer with the constructor's inline-or-heap choice:
     * no temporary SmallFn is built and then relocated.  A SmallFn
     * argument is moved, as by move assignment.
     */
    template <typename F>
    void
    assign(F &&f)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, SmallFn>) {
            *this = std::forward<F>(f);
        } else {
            reset();
            construct(std::forward<F>(f));
        }
    }

  private:
    /** Build @p f into the (empty) buffer. */
    template <typename F>
    void
    construct(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (std::is_constructible_v<bool, const D &>) {
            if (!static_cast<bool>(f))
                return;
        }
        if constexpr (sizeof(D) <= Inline &&
                      alignof(D) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<D>) {
            new (buf) D(std::forward<F>(f));
            ops = &opsFor<D, true>;
        } else {
            *reinterpret_cast<D **>(buf) = new D(std::forward<F>(f));
            ops = &opsFor<D, false>;
        }
    }

    /**
     * Null relocate/destroy mark a trivially-copyable inline callable:
     * moveFrom() then memcpys the buffer instead of calling through a
     * function pointer, and reset() skips the destroy call entirely.
     * Nearly every hot-path closure (captures of `this` pointers and
     * integers) takes this path, so moving callbacks through the event
     * queue costs a fixed inline copy, not an indirect call.
     */
    struct Ops
    {
        R (*call)(void *, Args &&...);
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D, bool IsInline>
    static D &
    deref(void *p) noexcept
    {
        if constexpr (IsInline)
            return *std::launder(reinterpret_cast<D *>(p));
        else
            return **reinterpret_cast<D **>(p);
    }

    template <typename D, bool IsInline>
    static constexpr Ops opsFor = {
        [](void *p, Args &&...args) -> R {
            return deref<D, IsInline>(p)(std::forward<Args>(args)...);
        },
        IsInline && std::is_trivially_copyable_v<D>
            ? nullptr
            : static_cast<void (*)(void *, void *) noexcept>(
                  [](void *src, void *dst) noexcept {
                      if constexpr (IsInline) {
                          new (dst) D(std::move(deref<D, true>(src)));
                          deref<D, true>(src).~D();
                      } else {
                          *reinterpret_cast<D **>(dst) =
                              *reinterpret_cast<D **>(src);
                      }
                  }),
        IsInline && std::is_trivially_copyable_v<D>
            ? nullptr
            : static_cast<void (*)(void *) noexcept>(
                  [](void *p) noexcept {
                      if constexpr (IsInline)
                          deref<D, true>(p).~D();
                      else
                          delete *reinterpret_cast<D **>(p);
                  }),
    };

    void
    moveFrom(SmallFn &other) noexcept
    {
        ops = other.ops;
        if (ops) {
            if (ops->relocate)
                ops->relocate(other.buf, buf);
            else
                std::memcpy(buf, other.buf, Inline);
            other.ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[Inline];
    const Ops *ops = nullptr;
};

} // namespace tengig

#endif // TENGIG_SIM_SMALL_FN_HH
