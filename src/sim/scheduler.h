// Discrete-event scheduler: the heart of the WSN simulator.
//
// A Scheduler owns a priority queue of (time, callback) events and a
// monotone simulation clock. Protocol code schedules future work with
// `at()`/`after()` and the main loop (`run*`) drains events in time
// order. Everything in this repository that "waits" — MAC backoff,
// HELLO jitter, share-assembly timeouts, epoch deadlines — is an event
// here; there are no threads and no wall-clock dependence, so a run is
// a deterministic function of (configuration, RNG seed).
//
// Ordering contract (DESIGN.md §5j): events are dispatched in ascending
// canonical key (fire time, schedule time, schedule seq) — exactly the
// historical (time, FIFO) order, since the clock is monotone and so
// schedule time already orders seq. The owner node id and border flag
// carried by each event are NOT ordering keys within a scheduler:
// distinct same-instant dispatches (e.g. several nodes' epoch timers
// firing at one clock tick) schedule events in an order that is FIFO
// but not ascending-owner, so folding the owner into the heap order
// would silently permute the golden trace. Owner matters only at the
// sharded engine's gate (net/shard_engine.h), where same-(fire,
// schedule)-time events from different shards need an engine-
// independent tie-break and per-shard seq counters are incomparable.
//
// Representation (DESIGN.md §5f, §5i): an indexed 4-ary min-heap over
// a slab of event slots. The heap array stores the comparison keys
// plus the slot inline, so sift compares stream contiguous 24-byte
// records with no per-compare gather into a side table; each slot
// records its own heap position, so cancel() removes the event from the
// middle of the heap in O(log n) — no tombstones, no hash tables, no
// per-event allocation beyond what the closure itself needs. EventIds
// encode (generation, slot), making stale ids self-invalidating. The
// callables live in a slab parallel to the slot metadata and are
// touched exactly twice per event (store at schedule, move-out at
// pop) — never during heap maintenance.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/event.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace icpda::sim {

/// Owner tag for events not tied to any node (test rigs, the service
/// dispatcher). Never compared within a scheduler; at the sharded
/// gate it sorts after every real node.
inline constexpr std::uint32_t kNoEventOwner = 0xFFFFFFFFu;

/// Immutable record of one DISPATCHED event's ordering coordinates,
/// kept alive (refcounted spaghetti stack) while any pending
/// descendant might still need it for the sharded gate's cross-shard
/// FIFO reconstruction (lineage_cmp below). A node is created lazily,
/// at most once per dispatch, the first time the dispatch schedules a
/// child under parentage tracking; it is freed when the last pending
/// descendant referencing the chain fires or is cancelled.
///
/// Chains are depth-capped (kMaxLineageDepth): the node that would
/// exceed the cap keeps its own (sched_at, intra) but drops the parent
/// pointer, carries kTruncated, and RESTARTS the chain at depth 0 — so
/// every event always has its most recent <= kMaxLineageDepth
/// generations of history and only comparisons that need to look past
/// a cut report "undecided" (counted in LineageCmpStats; the deepest
/// walk ever observed is ~13 levels, so at 4096 the cap is pure
/// memory insurance). Without the cap, a long-lived self-rescheduling
/// event line would pin its entire causal history in memory.
struct Lineage {
  static constexpr std::uint8_t kTruncated = 2;  ///< chain cut at depth cap
  SimTime sched_at;        ///< when the dispatched event was scheduled
  Lineage* parent;         ///< dispatch that scheduled it (null: root/cut)
  std::atomic<std::uint32_t> refs;
  std::uint32_t intra;     ///< index within ITS parent (root: install seq)
  std::uint16_t depth;
  std::uint8_t flags;
  [[nodiscard]] bool truncated() const { return (flags & kTruncated) != 0; }
};

inline constexpr std::uint16_t kMaxLineageDepth = 4096;

/// Drop one reference to `n`'s chain, freeing nodes whose last
/// reference this was. Safe from any thread (the sharded engine's
/// drains release chains concurrently).
void lineage_release(Lineage* n);

/// Relative single-heap FIFO order of two events that tie at
/// (fire time, schedule time), reconstructed from their parent
/// dispatch chains: tied children fire in their parents' dispatch
/// order (then by intra-dispatch index), parents tied at the same
/// instant recurse to grandparents, and chains that bottom out at
/// install-scheduled roots compare by the global install sequence.
/// Events scheduled outside any dispatch sort AFTER runtime-scheduled
/// events at a full tie (the legacy +infinity-ancestor rule). Returns
/// <0, 0, >0; 0 means undecided (a chain was cut at the depth cap) —
/// callers fall back to the owner id.
[[nodiscard]] int lineage_cmp(const Lineage* a, std::uint32_t ia,
                              const Lineage* b, std::uint32_t ib);

/// Observability for the gate comparator (process-wide, relaxed
/// atomics): how many comparisons came back undecided (chain cut at
/// the depth cap) and how many lineage nodes were alive at once.
/// Tests assert undecided == 0 at pinned sizes so a cap that is
/// silently too small shows up as a counter, not as a mystery
/// divergence (it did once — see DESIGN.md §5k).
struct LineageCmpStats {
  std::uint64_t undecided = 0;  ///< compares that fell back to owner id
  std::uint64_t live = 0;       ///< lineage nodes currently allocated
  std::uint64_t peak = 0;       ///< high-water mark of live nodes
};
[[nodiscard]] LineageCmpStats lineage_cmp_stats();
void reset_lineage_cmp_stats();

/// Canonical ordering key of a scheduled event. `operator<` is the
/// scheduler-local dispatch order: (fire time, schedule time, seq) —
/// seq is FIFO schedule order and breaks every tie; the remaining
/// fields ride along as metadata. Across schedulers seq counters are
/// incomparable, so the sharded engine's gate orders a (fire time,
/// schedule time) tie by PARENTAGE instead — see lineage_cmp and
/// canonical_cross_before.
struct EventKey {
  SimTime at;        ///< fire time
  SimTime sched_at;  ///< clock value when the event was scheduled
  std::uint32_t owner = kNoEventOwner;  ///< owning node id (metadata)
  std::uint64_t seq = 0;                ///< scheduler-local schedule order
  /// Parent dispatch chain (null: scheduled outside any dispatch).
  /// Borrowed, not owned: valid only while the event is pending.
  const Lineage* parent = nullptr;
  std::uint32_t intra = 0;  ///< schedule index within the parent dispatch
                            ///< (global install seq when parent is null)

  [[nodiscard]] friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.sched_at != b.sched_at) return a.sched_at < b.sched_at;
    return a.seq < b.seq;
  }
};

/// Engine-independent canonical order between events of DIFFERENT
/// schedulers (the sharded gate's merge order): (fire time, schedule
/// time), then exact single-heap FIFO via lineage_cmp, with the owner
/// id as the final fallback for chains cut at the depth cap. Within
/// one scheduler EventKey::operator< (seq FIFO) is the same order.
[[nodiscard]] bool canonical_cross_before(const EventKey& a,
                                          const EventKey& b);

class Scheduler {
 public:
  Scheduler() = default;
  /// Releases the lineage references of still-pending events (tracked
  /// schedulers only; untracked destruction stays trivial).
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Monotone: only advances inside run*()
  /// and advance_to().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Number of events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Number of events currently pending (excludes cancelled ones).
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Schedule `fn` at absolute time `t`. `t` must be >= now().
  /// `owner` is the node the event acts for (kNoEventOwner when none);
  /// `border` marks events that may touch another shard's state when
  /// the scheduler runs inside the sharded engine — they are indexed
  /// so the engine can find the next cross-shard interaction in O(1).
  /// Single-shard runs never pass border and pay nothing for it.
  EventId at(SimTime t, EventFn fn, std::uint32_t owner = kNoEventOwner,
             bool border = false);

  /// Schedule `fn` after a relative delay from now().
  EventId after(SimTime delay, EventFn fn, std::uint32_t owner = kNoEventOwner,
                bool border = false) {
    return at(now_ + delay, std::move(fn), owner, border);
  }

  /// Cancel a pending event: O(log n) true removal from the heap.
  /// Cancelling an already-fired or already cancelled event is a
  /// harmless no-op. Returns true if the event was pending.
  bool cancel(EventId id);

  /// Run until the queue is empty. Returns the number of events fired.
  std::uint64_t run();

  /// Run until the queue is empty or simulation time would exceed
  /// `deadline` (events strictly after the deadline remain queued; the
  /// clock is advanced to `deadline`).
  std::uint64_t run_until(SimTime deadline);

  /// Execute at most `max_events` events.
  std::uint64_t run_steps(std::uint64_t max_events);

  // ---- sharded-engine surface (net/shard_engine.h) ------------------

  [[nodiscard]] bool has_next() const { return !heap_.empty(); }
  /// Fire time of the next event; requires has_next().
  [[nodiscard]] SimTime next_time() const { return heap_.front().at; }
  /// Full canonical key of the next event; requires has_next(). The
  /// parentage fields are gathered from the slot side table — they are
  /// needed once per gate peek, not during heap maintenance.
  [[nodiscard]] EventKey next_key() const {
    const HeapEntry& e = heap_.front();
    const Ext& x = ext_[e.slot];
    return EventKey{e.at, x.sched_at, e.owner, e.seq, x.parent, x.intra};
  }
  /// Canonical key of the earliest still-pending border event; false
  /// when none. Prunes fired/cancelled index entries lazily.
  bool next_border(EventKey& out);

  /// Execute events with fire time strictly before `bound`; the clock
  /// ends at the last fired event (it is NOT advanced to the bound).
  std::uint64_t run_before(SimTime bound);
  /// Pop and dispatch the single next event; false if the queue is
  /// empty.
  bool run_one();
  /// Advance the clock to `t` if it is ahead of now() (lookahead
  /// window close, horizon semantics). Never moves the clock back.
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Drop every pending event and reset the clock to zero. Event ids
  /// are NOT reset — stale EventIds remain safely cancellable no-ops
  /// (their slot generation no longer matches).
  void reset();

  /// Attach a tracer: when it is enabled with scheduler_spans set, the
  /// run loops record a kDispatch span (global node, value = event id)
  /// around every callback. Pass nullptr to detach. Purely
  /// observational — attaching a tracer never changes event order.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Heap bytes held by the event storage (slot slabs, heap, border
  /// index) — capacity-based, so it reports high-water footprint, not
  /// the instantaneous queue depth. Feeds the footprint probe
  /// (analysis/footprint_main.cc).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return meta_.capacity() * sizeof(Meta) + fns_.capacity() * sizeof(EventFn) +
           ext_.capacity() * sizeof(Ext) +
           free_slots_.capacity() * sizeof(std::uint32_t) +
           heap_.capacity() * sizeof(HeapEntry) +
           border_.capacity() * sizeof(BorderEntry);
  }

  /// Enable parentage tracking (EventKey::parent/intra lineage).
  /// Those fields are consumed ONLY by the sharded engine's gate
  /// tie-break, yet maintaining them costs a thread-local context
  /// save/restore per dispatch plus a side-table write per schedule —
  /// a measurable tax (~30%) on the shallow scheduler microkernels.
  /// Off by default; net::ShardEngine switches it on for its shard
  /// schedulers at construction, before any events exist (enabling
  /// with events already queued would leave their slots stale). With
  /// it off, the sched_at/parentage slab is never written — harmless,
  /// since only the gate (which always tracks) reads it via
  /// next_key().
  void set_track_parentage(bool on) { track_parentage_ = on; }

 private:
  /// Sentinel heap position marking a slot as free / not queued.
  static constexpr std::uint32_t kNotQueued = 0xFFFFFFFF;

  /// Per-slot identity metadata (8 bytes): `gen` validates EventIds
  /// across slot reuse, `heap_pos` lets cancel() find the slot's heap
  /// entry. The ordering keys live in the heap entries themselves.
  struct Meta {
    std::uint32_t gen = 0;
    std::uint32_t heap_pos = kNotQueued;
  };

  /// One queued event as the heap sees it: the comparison keys plus
  /// the slot index, stored inline so sift compares walk contiguous
  /// 24-byte records instead of gathering keys from a side table.
  /// `seq` is the monotone schedule-order tie-break — THE determinism
  /// anchor within one scheduler. `sched_at` is deliberately NOT here:
  /// the clock is monotone, so at equal fire times seq order already
  /// refines schedule-time order and the compare never needs it; it
  /// lives in the per-slot `sched_at_` table, read once per pop/peek.
  /// `owner` rides in what would otherwise be padding.
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t owner;
    std::uint32_t slot;
  };

  /// Border-event index entry; validated against the slot generation
  /// when peeked, so cancelled/fired events cost nothing to remove.
  struct BorderEntry {
    EventKey key;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Non-comparison key fields per slot: the schedule time plus the
  /// parentage metadata (EventKey::parent/intra). Kept OUT of
  /// HeapEntry — the heap comparator never reads any of it (see
  /// before()), so the hot sift path keeps its compact 24-byte
  /// records; pop reads sched_at once, and the gate gathers the rest
  /// once per peek via next_key(). Written (and read) ONLY under
  /// track_parentage_ — untracked schedulers keep the slab allocated
  /// but untouched. A non-null `parent` OWNS one reference on the
  /// chain, released when the slot fires (transferred to the dispatch
  /// context) or is cancelled/reset (lineage_release).
  struct Ext {
    SimTime sched_at = SimTime::zero();
    Lineage* parent = nullptr;
    std::uint32_t intra = 0;
  };

  [[nodiscard]] static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return static_cast<EventId>((static_cast<std::uint64_t>(gen) << 32) | slot);
  }

  /// Strict canonical ordering between two queued events: the
  /// historical (fire time, FIFO) order. Comparing (at, seq) dispatches
  /// in exactly the canonical (at, sched_at, seq) EventKey order: the
  /// clock is monotone, so schedule times are non-decreasing in seq and
  /// a seq compare already refines the sched_at compare. `owner` is
  /// deliberately not compared — see the ordering contract at the top
  /// of this file.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  bool track_parentage_ = false;

  /// Append the just-scheduled event to the border index (cold: only
  /// sharded runs tag border events; kept out of at()'s inline body).
  void index_border(SimTime t, std::uint64_t seq, std::uint32_t owner,
                    std::uint32_t s);

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Remove the slot at heap position `pos` (restoring heap order) and
  /// return it to the free list.
  void remove_at(std::size_t pos);
  /// Release a slot back to the free list, bumping its generation.
  void release(std::uint32_t slot);

  /// A popped, not-yet-dispatched event. Under parentage tracking it
  /// holds the slot's lineage reference (transferred, not copied);
  /// dispatch_tracked hands it on to the dispatch context, which
  /// releases it when the dispatch completes.
  struct Popped {
    SimTime at;
    SimTime sched_at;
    std::uint32_t owner;
    std::uint32_t intra;
    Lineage* parent;
    EventId id;
    EventFn fn;
  };

  /// One event dispatch, with the optional trace span around it.
  /// Defined inline so the run loops keep their pre-sharding dispatch
  /// cost; the tracked path tails out of line (the parent-context
  /// thread-local lives in scheduler.cc).
  void dispatch(Popped& ev) {
    if (track_parentage_) {
      dispatch_tracked(ev);
      return;
    }
    now_ = ev.at;
    Tracer* tr = tracer_;
    const bool span = tr && tr->enabled() && tr->config().scheduler_spans;
    if (span) {
      tr->begin_span(kTraceGlobalNode, TracePhase::kDispatch, now_,
                     static_cast<std::uint64_t>(ev.id));
    }
    ev.fn();
    if (span) tr->end_span(kTraceGlobalNode, TracePhase::kDispatch, now_);
    ++executed_;
  }

  /// Tracked-path dispatch: additionally publishes (sched_at, owner)
  /// of the dispatched event as the thread-local parent context, so
  /// everything `fn` schedules — on this scheduler or, from the
  /// sharded gate, on a foreign one — inherits its parentage key
  /// fields.
  void dispatch_tracked(Popped& ev);

  /// Pops the next event into `out`; false if the queue is empty. The
  /// slot is released before the caller dispatches, so the callback
  /// can freely schedule (and reuse storage).
  bool pop_next(Popped& out);

  std::vector<Meta> meta_;
  /// Callable slab, parallel to meta_.
  std::vector<EventFn> fns_;
  /// Non-comparison key slab (sched_at + parentage), parallel to meta_.
  std::vector<Ext> ext_;
  std::vector<std::uint32_t> free_slots_;
  /// 4-ary min-heap of canonical-key entries. Four-way beats binary
  /// here: half the tree depth, and the sibling compares stream
  /// adjacent inline keys.
  std::vector<HeapEntry> heap_;
  /// Lazy min-heap over border-tagged events (sharded engine only;
  /// empty and untouched in single-shard runs).
  std::vector<BorderEntry> border_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  Tracer* tracer_ = nullptr;
};

}  // namespace icpda::sim
