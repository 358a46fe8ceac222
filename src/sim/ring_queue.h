/**
 * @file
 * FIFO queue over one reused buffer.
 *
 * std::deque allocates a fresh node every few hundred bytes of
 * push/pop traffic and frees the one it leaves, so a queue that never
 * grows still touches the heap at a steady rate. RingQueue keeps one
 * power-of-two buffer that doubles when full and is never released:
 * once it has reached the queue's high-water depth, pushes and pops
 * are allocation-free. The run queue and the accelerator job queue
 * use it.
 */

#ifndef AITAX_SIM_RING_QUEUE_H
#define AITAX_SIM_RING_QUEUE_H

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace aitax::sim {

/** Move-in, move-out FIFO of default-constructible T. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &
    front()
    {
        assert(!empty());
        return buf_[head_];
    }

    void
    push_back(T value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
        ++size_;
    }

    /**
     * Drop the front element. Its slot is reset to T{} at once, so
     * what it owned (a shared_ptr, a callback's captures) does not
     * outlive its turn in the queue.
     */
    void
    pop_front()
    {
        assert(!empty());
        buf_[head_] = T{};
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

  private:
    static constexpr std::size_t kFirstCapacity = 8;

    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? kFirstCapacity
                                         : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    /** Capacity is zero or a power of two. */
    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace aitax::sim

#endif // AITAX_SIM_RING_QUEUE_H
