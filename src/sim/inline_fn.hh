/**
 * @file
 * A small-buffer-only callable: the allocation-free replacement for
 * std::function<void()> on the event hot path.
 *
 * An InlineFn stores its callable *inline* -- there is no heap
 * fallback. A capture that does not fit (or is not trivially copyable)
 * is a compile error at the bind site, which is exactly the guarantee
 * the event kernel needs: zero heap allocations per scheduled event,
 * enforced by construction rather than by measurement.
 *
 * The trivially-copyable requirement makes InlineFn itself trivially
 * copyable, so event nodes holding one can live by value in bucket
 * vectors and the overflow heap and be relocated with memcpy. Engine
 * callbacks capture a `this` pointer plus a few words of payload, all
 * of which qualify.
 *
 * The buffer is pointer-aligned, not max_align_t-aligned: captures are
 * pointers and integers, and an 8-byte alignment keeps the event node
 * (tick, sequence number, call pointer, buffer) at 48 bytes.
 */

#ifndef DLP_SIM_INLINE_FN_HH
#define DLP_SIM_INLINE_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dlp::sim {

template <std::size_t Capacity>
class InlineFnT
{
  public:
    InlineFnT() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFnT>>>
    InlineFnT(F &&f) // NOLINT: implicit by design (lambda -> InlineFn)
    {
        bind(std::forward<F>(f));
    }

    /** (Re)bind to a callable; the old binding is discarded. */
    template <typename F>
    void
    bind(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "capture too large for InlineFn -- shrink the "
                      "capture (capture members via this) rather than "
                      "falling back to the heap");
        static_assert(alignof(Fn) <= alignof(void *),
                      "over-aligned capture in InlineFn");
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "InlineFn captures must be trivially copyable "
                      "(pointers, references, integers)");
        static_assert(std::is_trivially_destructible_v<Fn>,
                      "InlineFn captures must be trivially destructible");
        ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
        call = [](void *p) { (*static_cast<Fn *>(p))(); };
    }

    void operator()() { call(buf); }

    explicit operator bool() const { return call != nullptr; }

  private:
    void (*call)(void *) = nullptr;
    alignas(void *) unsigned char buf[Capacity];
};

/**
 * The event-kernel callable. 24 bytes holds the widest engine callback,
 * operand delivery: `this`, the consumer's index and operand slot, and
 * the value. The arrival tick is not captured: the callback reads it
 * from the queue's clock.
 */
using InlineFn = InlineFnT<24>;

} // namespace dlp::sim

#endif // DLP_SIM_INLINE_FN_HH
