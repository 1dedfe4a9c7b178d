#include "sim/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace icpda::sim {

namespace {
/// Min-heap predicate for the border index (std::*_heap build
/// max-heaps, so "greater" yields a min-heap).
[[nodiscard]] bool border_later(const EventKey& a, const EventKey& b) {
  return b < a;
}

/// The dispatch currently executing on this thread — the "parent" of
/// everything it schedules. Thread-local rather than per-scheduler
/// because a gate-executed event inserts into FOREIGN schedulers
/// (cross-shard delivery), and the child's parentage is the acting
/// event, not anything the target scheduler knows. Parallel drains
/// each dispatch on their own worker thread, so contexts never mix.
///
/// `self` is the dispatch's lineage node, created lazily on its first
/// child; it absorbs the dispatched event's own chain reference
/// (`parent`, transferred from the popped slot).
struct DispatchCtx {
  bool active = false;
  SimTime sched_at = SimTime::infinity();  ///< dispatched event's sched time
  Lineage* self = nullptr;    ///< this dispatch's node (lazily created)
  Lineage* parent = nullptr;  ///< dispatched event's own parent chain
  std::uint32_t intra = 0;    ///< dispatched event's intra / install seq
  std::uint32_t next_intra = 0;
};
thread_local DispatchCtx t_dispatch_ctx;

/// Global install sequence: events scheduled outside any dispatch
/// (network wiring, per-epoch setup) order by program order at a full
/// cross-shard tie, exactly as single-heap seq would. Serial program
/// phases issue these; atomic only as belt-and-braces.
std::atomic<std::uint32_t> g_install_seq{0};

/// Recycling pool for lineage nodes: freed nodes return to the
/// freeing thread's pool (no cross-thread synchronisation), capped so
/// a burst cannot pin unbounded memory. The wrapper destructor matters:
/// every sharded Network owns its own worker pool, so threads come and
/// go with Networks — a bare vector of raw pointers would leak its
/// pooled nodes on every thread exit, growing without bound over a
/// campaign's thousands of cells.
struct LineagePool {
  std::vector<Lineage*> nodes;
  ~LineagePool() {
    for (Lineage* n : nodes) delete n;
  }
};
thread_local LineagePool t_lineage_pool_holder;
constexpr std::size_t kLineagePoolCap = 1 << 14;

std::atomic<std::uint64_t> g_lineage_live{0};
std::atomic<std::uint64_t> g_lineage_peak{0};

void note_peak(std::uint64_t live) {
  std::uint64_t cur = g_lineage_peak.load(std::memory_order_relaxed);
  while (live > cur && !g_lineage_peak.compare_exchange_weak(
                           cur, live, std::memory_order_relaxed)) {
  }
}

[[nodiscard]] Lineage* lineage_alloc() {
  note_peak(g_lineage_live.fetch_add(1, std::memory_order_relaxed) + 1);
  if (!t_lineage_pool_holder.nodes.empty()) {
    Lineage* n = t_lineage_pool_holder.nodes.back();
    t_lineage_pool_holder.nodes.pop_back();
    return n;
  }
  return new Lineage;
}

/// Build the lineage node for the running dispatch, transferring the
/// context's chain reference into it (or dropping the chain at the
/// depth cap).
[[nodiscard]] Lineage* lineage_for_dispatch(DispatchCtx& ctx) {
  Lineage* n = lineage_alloc();
  n->sched_at = ctx.sched_at;
  n->intra = ctx.intra;
  n->refs.store(1, std::memory_order_relaxed);  // the context's hold
  if (ctx.parent == nullptr) {
    n->parent = nullptr;
    n->depth = 0;
    n->flags = 0;
  } else if (ctx.parent->depth + 1 >= kMaxLineageDepth) {
    // Restart the chain: depth resets to 0 so descendants keep
    // accumulating the most recent <= kMaxLineageDepth generations of
    // history (a cut that left depth at the cap would truncate every
    // descendant too, destroying ALL later ties' history — that bug
    // shipped first; see DESIGN.md §5k).
    lineage_release(ctx.parent);
    n->parent = nullptr;
    n->depth = 0;
    n->flags = Lineage::kTruncated;
  } else {
    n->parent = ctx.parent;  // transfer: no refcount traffic
    n->depth = static_cast<std::uint16_t>(ctx.parent->depth + 1);
    n->flags = 0;
  }
  ctx.parent = nullptr;  // ownership moved into (or released by) the node
  return n;
}
}  // namespace

void lineage_release(Lineage* n) {
  while (n != nullptr &&
         n->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Lineage* next = n->parent;
    g_lineage_live.fetch_sub(1, std::memory_order_relaxed);
    if (t_lineage_pool_holder.nodes.size() < kLineagePoolCap) {
      t_lineage_pool_holder.nodes.push_back(n);
    } else {
      delete n;
    }
    n = next;
  }
}

namespace {
std::atomic<std::uint64_t> g_cmp_undecided{0};
}  // namespace

LineageCmpStats lineage_cmp_stats() {
  return LineageCmpStats{g_cmp_undecided.load(std::memory_order_relaxed),
                         g_lineage_live.load(std::memory_order_relaxed),
                         g_lineage_peak.load(std::memory_order_relaxed)};
}

void reset_lineage_cmp_stats() {
  g_cmp_undecided.store(0, std::memory_order_relaxed);
  g_lineage_peak.store(g_lineage_live.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

int lineage_cmp(const Lineage* a, std::uint32_t ia, const Lineage* b,
                std::uint32_t ib) {
  for (;;) {
    if (a == b) {
      // Same parent dispatch (or both install-scheduled): the child
      // index / install sequence is the FIFO order. Equal only for
      // one and the same event.
      if (ia != ib) return ia < ib ? -1 : 1;
      return 0;
    }
    // Install-scheduled sorts after runtime-scheduled at a full tie
    // (the legacy +infinity-ancestor rule; see DESIGN.md §5k).
    if (a == nullptr) return 1;
    if (b == nullptr) return -1;
    if (a->sched_at != b->sched_at) return a->sched_at < b->sched_at ? -1 : 1;
    // Parents tied at (fire, schedule) time too: their dispatch order
    // is decided one causal level up — unless a chain was cut.
    if (a->truncated() || b->truncated()) {
      g_cmp_undecided.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    ia = a->intra;
    ib = b->intra;
    a = a->parent;
    b = b->parent;
  }
}

bool canonical_cross_before(const EventKey& a, const EventKey& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.sched_at != b.sched_at) return a.sched_at < b.sched_at;
  if (const int c = lineage_cmp(a.parent, a.intra, b.parent, b.intra)) {
    return c < 0;
  }
  // Undecidable only past the lineage depth cap: fall back to the
  // owner id — engine-independent (a node id never depends on its
  // home shard), deterministic across shard counts.
  return a.owner < b.owner;
}

Scheduler::~Scheduler() {
  if (!track_parentage_) return;
  for (const HeapEntry& e : heap_) {
    if (Lineage* p = ext_[e.slot].parent) {
      lineage_release(p);
      ext_[e.slot].parent = nullptr;
    }
  }
}

EventId Scheduler::at(SimTime t, EventFn fn, std::uint32_t owner, bool border) {
  if (t < now_) {
    throw std::invalid_argument("Scheduler::at: time is in the past");
  }
  if (!fn) {
    throw std::invalid_argument("Scheduler::at: empty callback");
  }
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(meta_.size());
    meta_.emplace_back();
    fns_.emplace_back();
    ext_.emplace_back();
  }
  Meta& m = meta_[s];
  fns_[s] = std::move(fn);
  // The Ext slab is written only under tracking: untracked schedulers
  // never read it back (pop skips it, and only the sharded gate — which
  // tracks by construction — calls next_key()), so skipping the store
  // keeps the single-shard schedule path at its pre-sharding cost.
  // Stale slot contents from before set_track_parentage(true) are ruled
  // out by the engine enabling it before any event exists.
  if (track_parentage_) {
    Ext& x = ext_[s];
    DispatchCtx& ctx = t_dispatch_ctx;
    if (ctx.active) {
      if (ctx.self == nullptr) ctx.self = lineage_for_dispatch(ctx);
      ctx.self->refs.fetch_add(1, std::memory_order_relaxed);
      x = Ext{now_, ctx.self, ctx.next_intra++};
    } else {
      // Setup code outside any dispatch: a chain root, ordered by the
      // global install sequence (FIFO-last against runtime events at
      // a full tie — see lineage_cmp).
      x = Ext{now_, nullptr,
              g_install_seq.fetch_add(1, std::memory_order_relaxed)};
    }
  }
  m.heap_pos = static_cast<std::uint32_t>(heap_.size());
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(HeapEntry{t, seq, owner, s});
  sift_up(heap_.size() - 1);
  if (border) index_border(t, seq, owner, s);
  return encode(s, m.gen);
}

// Out of line deliberately: only sharded runs ever tag border events,
// and inlining the push_heap machinery doubles at()'s code size for
// everyone else.
void Scheduler::index_border(SimTime t, std::uint64_t seq,
                             std::uint32_t owner, std::uint32_t s) {
  const Ext& x = ext_[s];
  border_.push_back(BorderEntry{
      EventKey{t, now_, owner, seq, x.parent, x.intra}, s, meta_[s].gen});
  std::push_heap(border_.begin(), border_.end(),
                 [](const BorderEntry& a, const BorderEntry& b) {
                   return border_later(a.key, b.key);
                 });
}

void Scheduler::dispatch_tracked(Popped& ev) {
  now_ = ev.at;
  DispatchCtx& ctx = t_dispatch_ctx;
  const DispatchCtx saved = ctx;
  ctx = DispatchCtx{true, ev.sched_at, nullptr, ev.parent, ev.intra, 0};
  struct Restore {
    DispatchCtx& ctx;
    const DispatchCtx& saved;
    // Runs on normal return AND unwind: drop the dispatch's chain hold
    // (self when a node was created — children keep their own refs —
    // else the popped event's untransferred parent reference).
    ~Restore() {
      if (ctx.self != nullptr) {
        lineage_release(ctx.self);
      } else if (ctx.parent != nullptr) {
        lineage_release(ctx.parent);
      }
      ctx = saved;
    }
  } restore{ctx, saved};
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

bool Scheduler::next_border(EventKey& out) {
  const auto later = [](const BorderEntry& a, const BorderEntry& b) {
    return border_later(a.key, b.key);
  };
  while (!border_.empty()) {
    const BorderEntry& top = border_.front();
    const Meta& m = meta_[top.slot];
    if (m.gen == top.gen && m.heap_pos != kNotQueued) {
      out = top.key;
      return true;
    }
    // Fired or cancelled since it was indexed: drop lazily.
    std::pop_heap(border_.begin(), border_.end(), later);
    border_.pop_back();
  }
  return false;
}

bool Scheduler::cancel(EventId id) {
  const auto raw = static_cast<std::uint64_t>(id);
  const auto s = static_cast<std::uint32_t>(raw & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(raw >> 32);
  if (s >= meta_.size()) return false;
  const Meta& m = meta_[s];
  if (m.gen != gen || m.heap_pos == kNotQueued) return false;  // fired or stale
  remove_at(m.heap_pos);
  return true;
}

void Scheduler::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    const HeapEntry& p = heap_[parent];
    if (!before(e, p)) break;
    heap_[pos] = p;
    meta_[p.slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  meta_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[pos];
  while (true) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    const HeapEntry b = heap_[best];
    if (!before(b, e)) break;
    heap_[pos] = b;
    meta_[b.slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  meta_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::remove_at(std::size_t pos) {
  release(heap_[pos].slot);
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  heap_[pos] = moved;
  meta_[moved.slot].heap_pos = static_cast<std::uint32_t>(pos);
  // The replacement came from the bottom: it can only need to move
  // down, unless the removal hole was below its parent (possible when
  // removing from the middle) — try both; one is a no-op.
  sift_up(pos);
  sift_down(meta_[moved.slot].heap_pos);
}

void Scheduler::release(std::uint32_t s) {
  fns_[s] = nullptr;  // drop captured state now, not at slot reuse
  if (track_parentage_) {
    if (Lineage* p = ext_[s].parent) {
      lineage_release(p);
      ext_[s].parent = nullptr;
    }
  }
  Meta& m = meta_[s];
  m.heap_pos = kNotQueued;
  ++m.gen;
  free_slots_.push_back(s);
}

bool Scheduler::pop_next(Popped& out) {
  if (heap_.empty()) return false;
  const std::uint32_t s = heap_[0].slot;
  Meta& m = meta_[s];
  out.at = heap_[0].at;
  // Only the parent-context publish in dispatch() consumes the Ext
  // fields, and only under tracking — skip the slab loads otherwise.
  // The slot's lineage reference TRANSFERS into the Popped (nulling
  // the slab cell so slot reuse never double-releases it).
  if (track_parentage_) {
    Ext& x = ext_[s];
    out.sched_at = x.sched_at;
    out.intra = x.intra;
    out.parent = x.parent;
    x.parent = nullptr;
  } else {
    out.sched_at = SimTime::zero();
    out.intra = 0;
    out.parent = nullptr;
  }
  out.owner = heap_[0].owner;
  out.id = encode(s, m.gen);
  out.fn = std::move(fns_[s]);  // move empties the slab cell
  m.heap_pos = kNotQueued;
  ++m.gen;
  free_slots_.push_back(s);
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = moved;
    meta_[moved.slot].heap_pos = 0;
    sift_down(0);
  }
  return true;
}

std::uint64_t Scheduler::run() {
  std::uint64_t fired = 0;
  Popped ev;
  while (pop_next(ev)) {
    dispatch(ev);
    ++fired;
  }
  return fired;
}

std::uint64_t Scheduler::run_until(SimTime deadline) {
  std::uint64_t fired = 0;
  Popped ev;
  while (!heap_.empty() && heap_[0].at <= deadline) {
    pop_next(ev);
    dispatch(ev);
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

std::uint64_t Scheduler::run_before(SimTime bound) {
  std::uint64_t fired = 0;
  Popped ev;
  while (!heap_.empty() && heap_[0].at < bound) {
    pop_next(ev);
    dispatch(ev);
    ++fired;
  }
  return fired;
}

bool Scheduler::run_one() {
  Popped ev;
  if (!pop_next(ev)) return false;
  dispatch(ev);
  return true;
}

std::uint64_t Scheduler::run_steps(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  Popped ev;
  while (fired < max_events && pop_next(ev)) {
    dispatch(ev);
    ++fired;
  }
  return fired;
}

void Scheduler::reset() {
  for (const HeapEntry& e : heap_) release(e.slot);
  heap_.clear();
  border_.clear();
  now_ = SimTime::zero();
  executed_ = 0;
}

}  // namespace icpda::sim
