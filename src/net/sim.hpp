#pragma once
// Discrete-event simulation core (the ns-3 substitute for §5/§6.4).
//
// The event queue is a Brown-style calendar queue (an adaptive timer
// wheel): events live in time-sliced buckets, so push/pop are O(1) at any
// pending-event population — the regime 10^5-user workloads put us in,
// where a binary heap pays log(n) cache-hostile sift steps per event.
//
// Events are fixed-size tagged-union records dispatched by switch, not
// type-erased closures: the simulator's hot producers (link serialization
// done, packet arrival, UDP emit, TCP pace/RTO, flow start) schedule
// through typed entry points that store a target pointer plus immediate
// arguments — no per-event heap allocation. In-flight packets ride
// their link: each Link keeps a FIFO "wire" of (arrival, seq, packet)
// entries and only the wire's head holds a calendar entry, so the
// pending population is one event per busy link, not one per packet in
// flight (see Link for why that replays the exact (when, seq) order).
// Bare callbacks get the allocation-free kTimer kind (function pointer +
// context); generic callers (tests, experiment glue) still get
// std::function scheduling, whose handlers live in a free-listed slab so
// steady-state closure churn allocates nothing either.
//
// Determinism contract: events execute in (when, seq) order — seq is the
// schedule-call sequence number, so simultaneous events run FIFO exactly
// as the original priority-queue core ran them. The calendar layout and
// its resizes are functions of the event history alone; no wall clock, no
// addresses, no thread timing.

#include <array>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace cisp::net {

/// Simulation time in seconds.
using Time = double;

/// A simulated packet. TCP metadata lives in the same struct (a tagged
/// subset is used by UDP) to keep the forwarding path trivial.
struct Packet {
  std::uint32_t flow_id = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t size_bytes = 0;
  Time sent_at = 0.0;

  // TCP fields (ignored by UDP flows).
  bool is_ack = false;
  std::uint64_t seq = 0;      ///< first byte of this segment
  std::uint64_t ack = 0;      ///< cumulative ack (next byte expected)
};

class Link;
class TcpFlow;
class UdpCbrSource;

/// Event kinds of the tagged union. The typed kinds cover every hot-path
/// producer; kClosure is the generic std::function fallback.
enum class EventKind : std::uint8_t {
  kClosure = 0,   ///< generic handler from the closure slab
  kLinkDeliver,   ///< packet arrival at the far end of a link
  kLinkDone,      ///< link finished serializing; dequeue the next packet
  kUdpEmit,       ///< CBR source emits its next packet
  kTcpPace,       ///< paced TCP segment leaves the sender
  kTcpRto,        ///< TCP retransmission timer
  kTcpStart,      ///< TCP flow start
  kTimer,         ///< bare callback: function pointer + context, no alloc
};
inline constexpr std::size_t kEventKindCount = 8;

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// One fixed-size event record (32 bytes — two per cache line). Trivially
/// copyable by design: bucket moves are memcpy, and the record owns no
/// heap state — closure handlers live in the simulator's slab (slot index
/// in `arg`), in-flight packets on their link's wire. Record size IS the
/// event core's working set (the calendar queue's pop scan walks these
/// by value), so the tag bits ride in the unused high bits of the target
/// pointer: user-space addresses fit in 48 bits on every platform we
/// build for (enforced at schedule time), which leaves room for the kind
/// (3 bits) and the TCP retransmit flag.
struct EventRecord {
  static constexpr std::uint64_t kPtrMask = (std::uint64_t{1} << 48) - 1;
  static constexpr unsigned kKindShift = 48;
  static constexpr unsigned kFlagShift = 52;

  Time when = 0.0;
  std::uint64_t seq = 0;  ///< FIFO among simultaneous events (determinism)
  std::uint64_t meta = 0;  ///< target ptr (low 48) | kind << 48 | flag << 52
  std::uint64_t arg = 0;   ///< closure slot / TCP seg / RTO epoch / fn

  [[nodiscard]] EventKind kind() const noexcept {
    return static_cast<EventKind>((meta >> kKindShift) & 0x7u);
  }
  [[nodiscard]] void* target() const noexcept {
    return reinterpret_cast<void*>(meta & kPtrMask);
  }
  [[nodiscard]] bool flag() const noexcept {
    return ((meta >> kFlagShift) & 1u) != 0;
  }
  static std::uint64_t pack(EventKind kind, const void* target, bool flag) {
    return (reinterpret_cast<std::uint64_t>(target) & kPtrMask) |
           (static_cast<std::uint64_t>(kind) << kKindShift) |
           (static_cast<std::uint64_t>(flag ? 1 : 0) << kFlagShift);
  }
};
static_assert(std::is_trivially_copyable_v<EventRecord>,
              "event records must stay memcpy-movable");
static_assert(sizeof(EventRecord) == 32, "event records are sized to the "
              "pop scan; move payload to an arena instead of growing them");

/// mmap-backed flat storage for the calendar wheel's slot array. Two
/// properties a std::vector cannot give: pages arrive zero on first
/// fault (a grow never memsets tens of MB of dead slots), and the range
/// is advised MADV_HUGEPAGE before any fault, so a 10^5-event wheel
/// spans a handful of dTLB entries instead of thousands — the far-ahead
/// pushes (next CBR emission, propagation-delayed arrivals) walk the
/// whole array and page-walk latency was showing up in profiles. Falls
/// back to heap allocation where mmap is unavailable.
class SlotArray {
 public:
  SlotArray() = default;
  explicit SlotArray(std::size_t records);
  SlotArray(SlotArray&& other) noexcept { swap(other); }
  SlotArray& operator=(SlotArray&& other) noexcept {
    swap(other);
    return *this;
  }
  SlotArray(const SlotArray&) = delete;
  SlotArray& operator=(const SlotArray&) = delete;
  ~SlotArray();

  void swap(SlotArray& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(records_, other.records_);
    std::swap(mapped_, other.mapped_);
  }
  [[nodiscard]] EventRecord* data() noexcept { return data_; }
  [[nodiscard]] const EventRecord* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_; }
  [[nodiscard]] EventRecord& operator[](std::size_t i) noexcept {
    return data_[i];
  }
  [[nodiscard]] const EventRecord& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

 private:
  EventRecord* data_ = nullptr;
  std::size_t records_ = 0;
  bool mapped_ = false;
};

/// The calendar queue: `bucket_count` time slices of width `width_`
/// seconds, indexed by the virtual bucket floor(when / width) so one
/// bucket array covers all future "years" (an event `rotations` ahead
/// just waits in place). Push appends to its bucket; pop scans the
/// current bucket for the (when, seq)-minimum among events of the
/// current virtual slice. The bucket count doubles/halves with the
/// population and the width re-estimates from the head-of-queue event
/// density, so bucket occupancy stays O(1) under both uniform and
/// bursty schedules. A wheel that has stopped resizing re-tunes its
/// width at the same size when too many inserts spill (see
/// retune_on_spill). All adaptation is a pure function of the pushed
/// events — determinism never depends on the layout.
///
/// Storage is one flat slot array (kSlotsPerBucket records per bucket)
/// plus a per-bucket spill vector for the rare overrun. Workloads push
/// in near-monotone event-time order, so consecutive pushes land in
/// neighboring buckets — with inline slots that is a sequential,
/// prefetchable write pattern instead of a pointer chase through
/// per-bucket heap arrays, and the pop cursor walks the same memory
/// forward. The occupancy array is one byte per bucket (L2-resident at
/// any realistic wheel size), and spill buckets are only consulted
/// while `spill_count_ > 0`.
class CalendarQueue {
 public:
  /// Inline bucket capacity. The resize policy holds mean occupancy at
  /// or below ~2 events/bucket, so eight slots absorb normal bursts;
  /// anything past that spills (correct, just slower) until the next
  /// resize re-buckets.
  static constexpr std::size_t kSlotsPerBucket = 8;
  /// Wheel footprint cap: 8192 buckets x 8 slots x 32 B = 2 MB, small
  /// enough that pushes into the current rotation stay in cache. Beyond
  /// this the wheel does not grow; density is absorbed by spill and by
  /// the future rings.
  static constexpr std::size_t kMaxBuckets = 8192;
  /// Far-future staging rings, indexed by rotation number mod this.
  /// Events beyond the wheel's distributed rotations append here
  /// sequentially (no random cache miss per push) and are bulk-moved
  /// into the wheel when the cursor reaches their rotation.
  static constexpr std::size_t kFutureRings = 32;

  CalendarQueue();

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  void push(EventRecord&& event);
  /// Pops the earliest event (ties broken by seq) into `out` when its
  /// time is <= `bound`; returns false (queue untouched) otherwise.
  [[nodiscard]] bool pop_min(Time bound, EventRecord& out);

 private:
  [[nodiscard]] std::uint64_t virtual_bucket(Time when) const noexcept {
    return static_cast<std::uint64_t>(when * inv_width_);
  }
  /// bucket_count_ is always a power of two, so the wheel index is a
  /// mask, not a hardware divide (a divide per push showed up hard in
  /// profiles).
  [[nodiscard]] std::size_t bucket_of(std::uint64_t vb) const noexcept {
    return static_cast<std::size_t>(vb) & bucket_mask_;
  }
  /// Rotation number of a virtual bucket: which full revolution of the
  /// wheel it belongs to. Events with rot <= distributed_rot_ live in
  /// the wheel; later ones wait in future_.
  [[nodiscard]] std::uint64_t rot_of(std::uint64_t vb) const noexcept {
    return vb >> rot_shift_;
  }
  void insert(const EventRecord& event, std::uint64_t vb);
  /// Moves every staged event with rotation <= target_rot from the
  /// future rings into the wheel and advances distributed_rot_.
  void distribute(std::uint64_t target_rot);
  void resize(std::size_t bucket_count);
  /// Called every retune_window_ wheel inserts: re-tunes the width at the
  /// same size when more than 1/kRetuneSpillShare of them spilled.
  void retune_on_spill();
  [[nodiscard]] std::size_t retune_base() const noexcept {
    return kRetuneWindowPerBucket * bucket_count_;
  }

  /// Spill re-tune trigger: the share of spilled inserts, and the window
  /// length (inserts per bucket) over which it is measured. A resize
  /// costs O(buckets + events), so a window of several inserts per
  /// bucket keeps re-tuning amortized O(1) per insert.
  static constexpr std::size_t kRetuneSpillShare = 16;
  static constexpr std::size_t kRetuneWindowPerBucket = 4;

  SlotArray slots_;                    ///< bucket_count_ * kSlotsPerBucket
  std::vector<std::uint8_t> counts_;   ///< inline occupancy per bucket
  std::vector<std::vector<EventRecord>> spill_;  ///< per-bucket overrun
  std::vector<std::vector<EventRecord>> future_;  ///< kFutureRings staging
  std::size_t future_count_ = 0;  ///< events currently staged in future_
  std::size_t spill_count_ = 0;
  std::size_t bucket_count_;
  std::size_t bucket_mask_;
  /// Wheel-occupancy watermark that triggers the next resize: 2x the
  /// bucket count while the wheel can still grow, 2x the post-resize
  /// occupancy once it is capped (then resize() re-tunes the width at
  /// the same size; geometric spacing keeps that amortized O(log)).
  std::size_t grow_at_;
  /// Wheel inserts and spilled inserts since the last resize or clean
  /// re-tune window: the spill re-tune reads only the event history.
  std::size_t inserted_ = 0;
  std::size_t spilled_ = 0;
  std::size_t retune_window_;
  unsigned rot_shift_;  ///< log2(bucket_count_): vb >> rot_shift_ = rotation
  double width_;
  double inv_width_;
  std::uint64_t cur_vb_ = 0;  ///< virtual bucket the scan cursor is on
  std::uint64_t distributed_rot_ = 0;  ///< wheel holds rotations <= this
  std::size_t count_ = 0;
};

class Simulator {
 public:
  using Handler = std::function<void()>;
  /// Allocation-free callback for kTimer events: `ctx` is the scheduling
  /// site's object pointer (must outlive the event).
  using TimerFn = void (*)(void* ctx);

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `handler` to run `delay` seconds from now (>= 0).
  void schedule(Time delay, Handler handler);
  /// Schedules at an absolute time (>= now).
  void schedule_at(Time when, Handler handler);

  /// Allocation-free bare-callback scheduling: a captureless lambda (or
  /// any function pointer) plus a context pointer, stored inline in the
  /// event record. The cheap path for periodic per-object timers that
  /// need no closure state.
  void schedule_timer(Time delay, TimerFn fn, void* ctx);
  void schedule_timer_at(Time when, TimerFn fn, void* ctx);

  // Typed allocation-free scheduling (the hot paths). Targets must
  // outlive the event; relative delays must be >= 0, absolute times
  // >= now().
  void schedule_link_done(Time delay, Link* link);
  void schedule_udp_emit_at(Time when, UdpCbrSource* source);
  void schedule_tcp_pace_at(Time when, TcpFlow* flow, std::uint64_t segment,
                            bool retransmit);
  void schedule_tcp_rto(Time delay, TcpFlow* flow, std::uint64_t epoch);
  void schedule_tcp_start_at(Time when, TcpFlow* flow);

  /// Runs events until the queue empties or `end` is passed. Events at
  /// exactly `end` are executed.
  void run_until(Time end);
  /// Runs until the queue is empty.
  void run();

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  [[nodiscard]] std::uint64_t events_processed(EventKind kind) const noexcept {
    return processed_by_kind_[static_cast<std::size_t>(kind)];
  }
  /// Calendar entries pending: packets waiting behind their wire's head
  /// are not counted (each busy wire holds one entry).
  [[nodiscard]] std::size_t events_pending() const noexcept {
    return queue_.size();
  }

 private:
  friend class Link;  ///< stamps and pushes its wire heads

  /// Takes the next schedule sequence number without scheduling: a link
  /// stamps a packet's arrival when it starts serializing, exactly where
  /// a per-packet event would have taken its seq.
  [[nodiscard]] std::uint64_t take_seq() noexcept { return next_seq_++; }
  /// Pushes a wire head's kLinkDeliver entry under its stamped seq.
  void push_wire_head(Time when, std::uint64_t seq, Link* link);
  void push_event(Time when, EventKind kind, void* target, std::uint64_t arg,
                  bool flag);
  void push_record(Time when, std::uint64_t seq, EventKind kind, void* target,
                   std::uint64_t arg, bool flag);
  void dispatch(EventRecord& event);
  void run_loop(Time bound);
  /// Flushes per-kind counter deltas to obs (no-op while metrics are off;
  /// counts are tracked locally either way, so enabling metrics can never
  /// perturb the simulation).
  void flush_metrics(
      const std::array<std::uint64_t, kEventKindCount>& before) const;

  CalendarQueue queue_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::array<std::uint64_t, kEventKindCount> processed_by_kind_{};

  // Closure slab: kClosure handlers by slot index, free-listed so
  // steady-state generic scheduling reuses storage instead of allocating.
  std::vector<Handler> closures_;
  std::vector<std::uint32_t> free_closures_;
};

}  // namespace cisp::net
