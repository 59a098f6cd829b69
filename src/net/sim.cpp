#include "net/sim.hpp"

#ifdef __linux__
#include <sys/mman.h>
#endif

#include <algorithm>
#include <bit>
#include <limits>

#include "net/link.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace cisp::net {

namespace {

constexpr std::size_t kMinBuckets = 16;
/// Resize width estimation: average gap over this many head-of-queue
/// events (the density that matters for bucket occupancy; far-future
/// outliers wait in future virtual slices and must not stretch the
/// width).
constexpr std::size_t kWidthSample = 64;
/// Target ~4 head-gap events per bucket: wide enough that pops rarely
/// walk empty buckets, narrow enough that the per-pop min scan stays
/// O(1).
constexpr double kWidthGapsPerBucket = 4.0;
constexpr double kMinWidth = 1e-12;

bool earlier(const EventRecord& a, const EventRecord& b) noexcept {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

/// counts_[b] layout: low 7 bits inline occupancy (<= kSlotsPerBucket),
/// high bit "this bucket has spilled events". Keeping the flag in the
/// count byte means the pop scan only touches the spill vector headers
/// (a cache-hostile array of their own) for buckets that actually
/// spilled.
constexpr std::uint8_t kSpillFlag = 0x80;
constexpr std::uint8_t kCountMask = 0x7f;

}  // namespace

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kClosure:
      return "closure";
    case EventKind::kLinkDeliver:
      return "link_deliver";
    case EventKind::kLinkDone:
      return "link_done";
    case EventKind::kUdpEmit:
      return "udp_emit";
    case EventKind::kTcpPace:
      return "tcp_pace";
    case EventKind::kTcpRto:
      return "tcp_rto";
    case EventKind::kTcpStart:
      return "tcp_start";
    case EventKind::kTimer:
      return "timer";
  }
  return "unknown";
}

// --- SlotArray -------------------------------------------------------------

SlotArray::SlotArray(std::size_t records) : records_(records) {
  const std::size_t bytes = records * sizeof(EventRecord);
#ifdef __linux__
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem != MAP_FAILED) {
    // Advise before first fault so THP backs the wheel with 2 MB pages
    // from the start (the madvise THP mode most distros ship).
    constexpr std::size_t kHuge = 2u << 20;
    const auto base = reinterpret_cast<std::uintptr_t>(mem);
    const std::uintptr_t lo = (base + kHuge - 1) & ~(kHuge - 1);
    const std::uintptr_t hi = (base + bytes) & ~(kHuge - 1);
    if (hi > lo) {
      ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
    }
    data_ = static_cast<EventRecord*>(mem);
    mapped_ = true;
    return;
  }
#endif
  data_ = new EventRecord[records]();
}

SlotArray::~SlotArray() {
  if (data_ == nullptr) return;
#ifdef __linux__
  if (mapped_) {
    ::munmap(data_, records_ * sizeof(EventRecord));
    return;
  }
#endif
  delete[] data_;
}

// --- CalendarQueue ---------------------------------------------------------

CalendarQueue::CalendarQueue()
    : slots_(kMinBuckets * kSlotsPerBucket),
      counts_(kMinBuckets, 0),
      spill_(kMinBuckets),
      future_(kFutureRings),
      bucket_count_(kMinBuckets),
      bucket_mask_(kMinBuckets - 1),
      grow_at_(2 * kMinBuckets),
      retune_window_(kRetuneWindowPerBucket * kMinBuckets),
      rot_shift_(static_cast<unsigned>(std::countr_zero(kMinBuckets))),
      width_(1e-4),
      inv_width_(1e4) {}

void CalendarQueue::insert(const EventRecord& event, std::uint64_t vb) {
  const std::size_t b = bucket_of(vb);
  const std::size_t cnt = counts_[b] & kCountMask;
  ++inserted_;
  if (cnt < kSlotsPerBucket) {
    slots_[b * kSlotsPerBucket + cnt] = event;
    ++counts_[b];
  } else {
    spill_[b].push_back(event);
    counts_[b] |= kSpillFlag;
    ++spill_count_;
    ++spilled_;
  }
}

void CalendarQueue::push(EventRecord&& event) {
  const std::uint64_t vb = virtual_bucket(event.when);
  // Keep the invariant that no pending event lives before the cursor: a
  // push behind it (legal whenever now() trails the cursor's slice)
  // rewinds the scan.
  if (count_ == 0 || vb < cur_vb_) cur_vb_ = vb;
  ++count_;
  if (rot_of(vb) <= distributed_rot_) {
    insert(event, vb);
    // Resize on wheel occupancy (staged events don't need buckets):
    // doubling while below the footprint cap, a same-size width re-tune
    // once at it (a stale-wide width would otherwise collapse the whole
    // horizon into one rotation and starve the rings).
    if (count_ - future_count_ > grow_at_) {
      resize(std::min(bucket_count_ * 2, kMaxBuckets));
    } else if (inserted_ >= retune_window_) {
      retune_on_spill();
    }
  } else {
    // Far future: a sequential append instead of a random wheel write.
    // The event reaches its bucket when the cursor enters its rotation.
    future_[static_cast<std::size_t>(rot_of(vb)) & (kFutureRings - 1)]
        .push_back(event);
    ++future_count_;
  }
}

void CalendarQueue::distribute(std::uint64_t target_rot) {
  if (future_count_ > 0) {
    // Each ring holds only rotations > distributed_rot_ that are equal
    // mod kFutureRings, so sweeping the rotation range (capped at one
    // lap: beyond that every ring must be filtered anyway) finds every
    // event now due. Aliased events from later laps stay in place.
    const std::uint64_t span =
        std::min<std::uint64_t>(target_rot - distributed_rot_, kFutureRings);
    for (std::uint64_t k = 0; k < span; ++k) {
      std::vector<EventRecord>& ring =
          future_[static_cast<std::size_t>(distributed_rot_ + 1 + k) &
                  (kFutureRings - 1)];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < ring.size(); ++i) {
        const std::uint64_t vb = virtual_bucket(ring[i].when);
        if (rot_of(vb) <= target_rot) {
          insert(ring[i], vb);
          --future_count_;
        } else {
          ring[keep++] = ring[i];
        }
      }
      ring.resize(keep);
    }
  }
  distributed_rot_ = target_rot;
}

bool CalendarQueue::pop_min(Time bound, EventRecord& out) {
  if (count_ == 0) return false;
  for (;;) {
    bool rescan = false;
    const std::size_t n = bucket_count_;
    // One full rotation of the wheel from the cursor.
    for (std::size_t step = 0; step < n; ++step) {
      // Crossing into an undistributed rotation: pull its staged events
      // out of the future rings before scanning any of its buckets.
      if (rot_of(cur_vb_) > distributed_rot_) {
        distribute(rot_of(cur_vb_));
        if (count_ - future_count_ > grow_at_) {
          resize(std::min(bucket_count_ * 2, kMaxBuckets));
          rescan = true;  // bucket geometry changed; restart the scan
          break;
        }
      }
      const std::size_t b = bucket_of(cur_vb_);
      // The cursor almost always advances forward one bucket at a time;
      // by the time it arrives, a rotation of pushes has evicted these
      // lines, so stage the next buckets' slots behind the current scan.
      __builtin_prefetch(slots_.data() + bucket_of(cur_vb_ + 1) * kSlotsPerBucket);
      __builtin_prefetch(slots_.data() + bucket_of(cur_vb_ + 2) * kSlotsPerBucket);
      __builtin_prefetch(slots_.data() + bucket_of(cur_vb_ + 3) * kSlotsPerBucket);
      const std::size_t cnt = counts_[b] & kCountMask;
      EventRecord* const slot = slots_.data() + b * kSlotsPerBucket;
      // Find the (when, seq)-minimum among this slice's events: inline
      // slots first, then the spill (only consulted while any exists).
      const EventRecord* best = nullptr;
      std::size_t best_idx = 0;
      bool best_spilled = false;
      for (std::size_t i = 0; i < cnt; ++i) {
        // Events parked in this bucket from future wheel rotations are
        // not candidates yet.
        if (virtual_bucket(slot[i].when) != cur_vb_) continue;
        if (best == nullptr || earlier(slot[i], *best)) {
          best = &slot[i];
          best_idx = i;
        }
      }
      if (counts_[b] & kSpillFlag) {
        std::vector<EventRecord>& over = spill_[b];
        for (std::size_t i = 0; i < over.size(); ++i) {
          if (virtual_bucket(over[i].when) != cur_vb_) continue;
          if (best == nullptr || earlier(over[i], *best)) {
            best = &over[i];
            best_idx = i;
            best_spilled = true;
          }
        }
      }
      if (best != nullptr) {
        // virtual_bucket is monotone in `when`, so the minimum of the
        // cursor's slice is the global minimum.
        if (best->when > bound) return false;
        out = *best;
        // Start pulling the dispatch target in while we do the removal
        // bookkeeping below.
        __builtin_prefetch(out.target());
        if (best_spilled) {
          std::vector<EventRecord>& over = spill_[b];
          over[best_idx] = over.back();
          over.pop_back();
          --spill_count_;
          if (over.empty()) counts_[b] &= kCountMask;
        } else {
          slot[best_idx] = slot[cnt - 1];
          --counts_[b];
          // Promote a spilled event into the freed slot so the spill
          // drains instead of lingering on the slow path.
          if (counts_[b] & kSpillFlag) {
            std::vector<EventRecord>& over = spill_[b];
            slot[counts_[b] & kCountMask] = over.back();
            over.pop_back();
            --spill_count_;
            ++counts_[b];
            if (over.empty()) counts_[b] &= kCountMask;
          }
        }
        --count_;
        if (count_ < bucket_count_ / 4 && bucket_count_ > kMinBuckets) {
          resize(std::max(kMinBuckets, bucket_count_ / 2));
        }
        return true;
      }
      ++cur_vb_;
    }
    if (rescan) continue;
    // Sparse queue: nothing within a rotation. Jump the cursor straight
    // to the earliest pending slice — wheel, spill, or staged in the
    // future rings — and retry (the rotation check above distributes).
    std::uint64_t min_vb = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      for (std::size_t i = 0; i < (counts_[b] & kCountMask); ++i) {
        min_vb = std::min(min_vb,
                          virtual_bucket(slots_[b * kSlotsPerBucket + i].when));
      }
      for (const EventRecord& event : spill_[b]) {
        min_vb = std::min(min_vb, virtual_bucket(event.when));
      }
    }
    if (future_count_ > 0) {
      for (const std::vector<EventRecord>& ring : future_) {
        for (const EventRecord& event : ring) {
          min_vb = std::min(min_vb, virtual_bucket(event.when));
        }
      }
    }
    cur_vb_ = min_vb;
  }
}

void CalendarQueue::retune_on_spill() {
  if (spilled_ * kRetuneSpillShare > inserted_) {
    // The width went stale: the population the last resize sized it for
    // is gone, and buckets overflow. Re-estimate it at the same size.
    // Back off geometrically while re-tuning does not help (a flood of
    // equal timestamps no width can spread).
    const std::size_t window = retune_window_;
    resize(bucket_count_);
    retune_window_ = 2 * window;
    return;
  }
  inserted_ = 0;
  spilled_ = 0;
  retune_window_ = retune_base();
}

void CalendarQueue::resize(std::size_t bucket_count) {
  std::vector<EventRecord> all;
  all.reserve(count_);
  for (std::size_t b = 0; b < bucket_count_; ++b) {
    for (std::size_t i = 0; i < (counts_[b] & kCountMask); ++i) {
      all.push_back(slots_[b * kSlotsPerBucket + i]);
    }
    counts_[b] = 0;
    if (!spill_[b].empty()) {
      all.insert(all.end(), spill_[b].begin(), spill_[b].end());
      spill_[b].clear();
    }
  }
  spill_count_ = 0;
  if (future_count_ > 0) {
    for (std::vector<EventRecord>& ring : future_) {
      all.insert(all.end(), ring.begin(), ring.end());
      ring.clear();
    }
    future_count_ = 0;
  }
  // Re-estimate the width from the head-of-queue event density.
  if (all.size() >= 2) {
    const std::size_t sample = std::min(kWidthSample, all.size());
    std::nth_element(all.begin(), all.begin() + (sample - 1), all.end(),
                     earlier);
    const auto head = std::minmax_element(
        all.begin(), all.begin() + sample,
        [](const EventRecord& a, const EventRecord& b) {
          return a.when < b.when;
        });
    const double span = head.second->when - head.first->when;
    if (span > 0.0) {
      const double gap = span / static_cast<double>(sample - 1);
      width_ = std::max(gap * kWidthGapsPerBucket, kMinWidth);
      inv_width_ = 1.0 / width_;
    }
  }
  bucket_count_ = bucket_count;
  bucket_mask_ = bucket_count - 1;
  rot_shift_ = static_cast<unsigned>(std::countr_zero(bucket_count));
  // The live events sit in `all`, so the wheel never copies dead slots:
  // swap in a fresh fault-zeroed mapping (or, at the same size, keep the
  // mapping: the zeroed counts hide its stale slots) and re-insert.
  if (slots_.size() != bucket_count * kSlotsPerBucket) {
    SlotArray(bucket_count * kSlotsPerBucket).swap(slots_);
  }
  counts_.assign(bucket_count, 0);
  spill_.resize(bucket_count);
  std::uint64_t min_vb = std::numeric_limits<std::uint64_t>::max();
  for (const EventRecord& event : all) {
    min_vb = std::min(min_vb, virtual_bucket(event.when));
  }
  cur_vb_ = count_ > 0 ? min_vb : 0;
  distributed_rot_ = rot_of(cur_vb_);
  // Re-route under the new geometry: the cursor's rotation into the
  // wheel, everything later back onto the staging rings.
  for (const EventRecord& event : all) {
    const std::uint64_t vb = virtual_bucket(event.when);
    if (rot_of(vb) <= distributed_rot_) {
      insert(event, vb);
    } else {
      future_[static_cast<std::size_t>(rot_of(vb)) & (kFutureRings - 1)]
          .push_back(event);
      ++future_count_;
    }
  }
  // Next resize: plain doubling while the wheel can grow. At the cap,
  // re-tune the width when occupancy outgrows the equilibrium band
  // (~4 events/bucket -> 8x buckets floor); the 25%-growth spacing
  // converges on a moving width estimate yet stays amortized-cheap for
  // incompressible same-timestamp floods (where re-tuning can't help).
  const std::size_t wheel = count_ - future_count_;
  grow_at_ = std::max(
      bucket_count_ < kMaxBuckets ? 2 * bucket_count_ : 8 * bucket_count_,
      wheel + wheel / 4);
  inserted_ = 0;
  spilled_ = 0;
  retune_window_ = std::max(retune_window_, retune_base());
}

// --- Simulator -------------------------------------------------------------

void Simulator::schedule(Time delay, Handler handler) {
  CISP_REQUIRE(delay >= 0.0, "cannot schedule in the past");
  schedule_at(now_ + delay, std::move(handler));
}

void Simulator::schedule_at(Time when, Handler handler) {
  CISP_REQUIRE(when >= now_, "cannot schedule before now");
  std::uint32_t slot;
  if (free_closures_.empty()) {
    slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(handler));
  } else {
    slot = free_closures_.back();
    free_closures_.pop_back();
    closures_[slot] = std::move(handler);
  }
  push_event(when, EventKind::kClosure, nullptr, slot, false);
}

void Simulator::schedule_timer(Time delay, TimerFn fn, void* ctx) {
  CISP_REQUIRE(delay >= 0.0, "cannot schedule in the past");
  push_event(now_ + delay, EventKind::kTimer, ctx,
             static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(fn)),
             false);
}

void Simulator::schedule_timer_at(Time when, TimerFn fn, void* ctx) {
  CISP_REQUIRE(when >= now_, "cannot schedule before now");
  push_event(when, EventKind::kTimer, ctx,
             static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(fn)),
             false);
}

void Simulator::push_wire_head(Time when, std::uint64_t seq, Link* link) {
  push_record(when, seq, EventKind::kLinkDeliver, link, 0, false);
}

void Simulator::schedule_link_done(Time delay, Link* link) {
  CISP_REQUIRE(delay >= 0.0, "cannot schedule in the past");
  push_event(now_ + delay, EventKind::kLinkDone, link, 0, false);
}

void Simulator::schedule_udp_emit_at(Time when, UdpCbrSource* source) {
  CISP_REQUIRE(when >= now_, "cannot schedule before now");
  push_event(when, EventKind::kUdpEmit, source, 0, false);
}

void Simulator::schedule_tcp_pace_at(Time when, TcpFlow* flow,
                                     std::uint64_t segment, bool retransmit) {
  CISP_REQUIRE(when >= now_, "cannot schedule before now");
  push_event(when, EventKind::kTcpPace, flow, segment, retransmit);
}

void Simulator::schedule_tcp_rto(Time delay, TcpFlow* flow,
                                 std::uint64_t epoch) {
  CISP_REQUIRE(delay >= 0.0, "cannot schedule in the past");
  push_event(now_ + delay, EventKind::kTcpRto, flow, epoch, false);
}

void Simulator::schedule_tcp_start_at(Time when, TcpFlow* flow) {
  CISP_REQUIRE(when >= now_, "cannot schedule before now");
  push_event(when, EventKind::kTcpStart, flow, 0, false);
}

void Simulator::push_event(Time when, EventKind kind, void* target,
                           std::uint64_t arg, bool flag) {
  push_record(when, next_seq_++, kind, target, arg, flag);
}

void Simulator::push_record(Time when, std::uint64_t seq, EventKind kind,
                            void* target, std::uint64_t arg, bool flag) {
  CISP_REQUIRE((reinterpret_cast<std::uintptr_t>(target) &
                ~std::uintptr_t{EventRecord::kPtrMask}) == 0,
               "event target outside the 48-bit address range");
  EventRecord event;
  event.when = when;
  event.seq = seq;
  event.meta = EventRecord::pack(kind, target, flag);
  event.arg = arg;
  queue_.push(std::move(event));
}

void Simulator::dispatch(EventRecord& event) {
  switch (event.kind()) {
    case EventKind::kClosure: {
      // Move the handler out and free its slot first: the handler may
      // itself schedule (growing the slab) or recurse into run().
      Handler handler = std::move(closures_[event.arg]);
      closures_[event.arg] = nullptr;
      free_closures_.push_back(static_cast<std::uint32_t>(event.arg));
      handler();
      break;
    }
    case EventKind::kLinkDeliver:
      static_cast<Link*>(event.target())->wire_arrival();
      break;
    case EventKind::kLinkDone:
      static_cast<Link*>(event.target())->transmission_done();
      break;
    case EventKind::kUdpEmit:
      static_cast<UdpCbrSource*>(event.target())->emit();
      break;
    case EventKind::kTcpPace:
      static_cast<TcpFlow*>(event.target())
          ->transmit_now(event.arg, event.flag());
      break;
    case EventKind::kTcpRto:
      static_cast<TcpFlow*>(event.target())->on_timeout(event.arg);
      break;
    case EventKind::kTcpStart:
      static_cast<TcpFlow*>(event.target())->on_start();
      break;
    case EventKind::kTimer:
      reinterpret_cast<TimerFn>(
          static_cast<std::uintptr_t>(event.arg))(event.target());
      break;
  }
}

void Simulator::run_loop(Time bound) {
  const std::array<std::uint64_t, kEventKindCount> before = processed_by_kind_;
  // Queue-depth sampling is read once per run: the histogram is
  // diagnostics, and a per-event atomic load would tax the hot loop.
  const bool sample_depth = obs::metrics_enabled();
  EventRecord event;
  std::uint64_t since_sample = 0;
  while (queue_.pop_min(bound, event)) {
    now_ = event.when;
    ++processed_;
    ++processed_by_kind_[static_cast<std::size_t>(event.kind())];
    if (sample_depth && (++since_sample & 63) == 0) {
      static obs::Histogram& depth = obs::histogram(
          "sim.queue_depth", {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6});
      depth.record(static_cast<double>(queue_.size()));
    }
    dispatch(event);
  }
  flush_metrics(before);
}

void Simulator::run_until(Time end) {
  run_loop(end);
  if (now_ < end) now_ = end;
}

void Simulator::run() {
  // Unbounded: now() ends at the last processed event, as before.
  run_loop(std::numeric_limits<Time>::infinity());
}

void Simulator::flush_metrics(
    const std::array<std::uint64_t, kEventKindCount>& before) const {
  if (!obs::metrics_enabled()) return;
  static const std::array<obs::Counter*, kEventKindCount> counters = [] {
    std::array<obs::Counter*, kEventKindCount> made{};
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      made[k] = &obs::counter(std::string("sim.events.") +
                              to_string(static_cast<EventKind>(k)));
    }
    return made;
  }();
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    counters[k]->add(processed_by_kind_[k] - before[k]);
  }
}

}  // namespace cisp::net
