#pragma once
// A FIFO ring buffer: the storage of a link's drop-tail queue and of its
// wire (the packets in flight on it). One contiguous power-of-two slab,
// head/count indices, doubling growth — replaces the std::deque link
// queues whose node churn dominated the old DES memory profile. Elements
// are trivially copyable, so every operation is a plain store; growth
// copies the live window once and is amortized O(1).

#include <cstddef>
#include <type_traits>
#include <vector>

namespace cisp::net {

template <typename T>
class FifoRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots are moved by plain stores");

 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  void push_back(const T& value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = value;
    ++count_;
  }

  [[nodiscard]] const T& front() const noexcept { return slots_[head_]; }
  [[nodiscard]] const T& back() const noexcept {
    return slots_[(head_ + count_ - 1) & (slots_.size() - 1)];
  }

  void pop_front() noexcept {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< power-of-two capacity
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace cisp::net
