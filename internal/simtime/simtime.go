// Package simtime provides the discrete-event simulation core used by the
// platform and scheduler simulators: a virtual clock and an event queue.
//
// The simulators in this repository model wall-clock phenomena (autoscaling
// lag, CFS period boundaries, keep-alive windows) far faster than real time
// by advancing a virtual clock from event to event. Events scheduled for
// the same instant fire in scheduling order (FIFO), which makes simulations
// deterministic.
//
// # Implementation
//
// The queue is a hierarchical timing wheel, not a binary heap: five levels
// of 64 slots over ~1ms virtual ticks (2^20 ns), each level spanning 64×
// the ticks of the one below, with one occupancy bitmap per level so the
// next non-empty slot is a single trailing-zeros scan away. Scheduling and
// cancelling are O(1): an event hashes to the slot of the highest 6-bit
// tick group in which its deadline differs from the cursor, and slots are
// intrusive doubly-linked FIFO chains, so a cancelled timer unlinks
// immediately instead of lingering as heap garbage. Events within the
// cursor's own tick sit in a tiny "due" binary heap ordered by
// (time, sequence) — that heap is what preserves the exact same-instant
// FIFO contract while the wheel only ever resolves time to tick
// granularity. Deadlines beyond the top level's span (~12 virtual days
// ahead) go to an overflow heap and migrate into the wheel when the
// cursor reaches them. Expired items return to a free list, so a
// steady-state simulation schedules timers without allocating.
package simtime

import (
	"math/bits"
	"time"
)

// Event is a callback scheduled to run at a virtual instant.
type Event func(now time.Duration)

// ArgEvent is the allocation-free callback form used by hot paths: the
// argument travels inside the (pooled) timer item, so callers can
// schedule a pre-bound method value instead of allocating a fresh
// closure per event.
type ArgEvent func(now time.Duration, arg any)

// Wheel geometry. A tick is 2^20 ns ≈ 1.05 virtual milliseconds; level
// L's slots each span 64^L ticks, so five levels cover 64^5 ticks
// (~12.7 virtual days) before the overflow heap takes over.
const (
	tickShift = 20
	slotBits  = 6
	slotCount = 1 << slotBits
	slotMask  = slotCount - 1
	levels    = 5
	// horizonBits is the number of tick bits the wheel resolves; a
	// deadline whose tick differs from the cursor above these bits
	// overflows.
	horizonBits = levels * slotBits
)

// Location codes for item.loc. Non-negative values encode a wheel
// position as level<<slotBits | slot.
const (
	locFree     = -1
	locDue      = -2
	locOverflow = -3
)

// item is one scheduled event. Items are pooled per clock: after firing
// or cancellation they return to a free list with their generation
// bumped, which is what invalidates stale Handles.
type item struct {
	at         time.Duration
	seq        uint64
	fn         Event
	afn        ArgEvent
	arg        any
	next, prev *item // chain links while queued in a wheel slot
	idx        int32 // heap position while in the due/overflow heap
	loc        int32 // locFree/locDue/locOverflow or level<<slotBits|slot
	gen        uint64
}

// chain is one wheel slot's FIFO of items.
type chain struct{ head, tail *item }

// Handle is a value-type reference to a scheduled event, the
// allocation-free counterpart of Timer. The zero Handle is valid and
// refers to nothing. A Handle becomes stale — Cancel returns false —
// once its event fires or is cancelled, even if the underlying pooled
// item is reused.
type Handle struct {
	it  *item
	gen uint64
}

// Active reports whether the handle still refers to a pending event.
func (h Handle) Active() bool { return h.it != nil && h.it.gen == h.gen }

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	c       *Clock
	h       Handle
	stopped bool
}

// Stop cancels the timer. For recurring timers it prevents all future
// runs. It reports whether a pending event was cancelled. The cancelled
// event is removed from the queue immediately — it does not linger
// until its deadline — so cancel-heavy workloads keep the queue bounded
// by live events.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped {
		return false
	}
	t.stopped = true
	return t.c.Cancel(t.h)
}

// Clock is a virtual clock with an event queue. The zero value is not
// usable; create one with NewClock.
type Clock struct {
	now     time.Duration
	seq     uint64
	live    int
	curTick int64

	due      itemHeap // events at ticks ≤ curTick, ordered by (at, seq)
	overflow itemHeap // events beyond the wheel horizon
	occ      [levels]uint64
	wheel    [levels][slotCount]chain
	free     *item
}

// NewClock returns a clock starting at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Pending returns the number of live events queued. Cancelled events
// are removed eagerly and never counted.
func (c *Clock) Pending() int { return c.live }

// alloc takes an item from the free list or the heap.
func (c *Clock) alloc() *item {
	it := c.free
	if it == nil {
		return &item{}
	}
	c.free = it.next
	it.next = nil
	return it
}

// release returns a fired or cancelled item to the free list, bumping
// its generation so outstanding Handles go stale.
func (c *Clock) release(it *item) {
	it.gen++
	it.fn = nil
	it.afn = nil
	it.arg = nil
	it.prev = nil
	it.loc = locFree
	it.next = c.free
	c.free = it
}

// schedule queues a new event and returns its handle.
func (c *Clock) schedule(at time.Duration, fn Event, afn ArgEvent, arg any) Handle {
	if at < c.now {
		at = c.now
	}
	it := c.alloc()
	it.at = at
	it.seq = c.seq
	c.seq++
	it.fn = fn
	it.afn = afn
	it.arg = arg
	c.live++
	c.place(it)
	return Handle{it: it, gen: it.gen}
}

// place routes an item to the due heap, a wheel slot, or the overflow
// heap according to its tick's distance from the cursor.
func (c *Clock) place(it *item) {
	tick := int64(it.at) >> tickShift
	if tick <= c.curTick {
		// The cursor may sit past the item's tick when the wheel was
		// peeked ahead of the wall clock; the due heap orders by
		// (at, seq), so early items still fire in exact order.
		it.loc = locDue
		c.due.push(it)
		return
	}
	d := uint64(tick ^ c.curTick)
	level := (63 - bits.LeadingZeros64(d)) / slotBits
	if level >= levels {
		it.loc = locOverflow
		c.overflow.push(it)
		return
	}
	slot := int((tick >> (uint(level) * slotBits)) & slotMask)
	it.loc = int32(level<<slotBits | slot)
	ch := &c.wheel[level][slot]
	if ch.tail == nil {
		ch.head, ch.tail = it, it
	} else {
		it.prev = ch.tail
		ch.tail.next = it
		ch.tail = it
	}
	c.occ[level] |= 1 << uint(slot)
}

// unlink removes an item from its wheel slot chain.
func (c *Clock) unlink(it *item) {
	level := int(it.loc) >> slotBits
	slot := int(it.loc) & slotMask
	ch := &c.wheel[level][slot]
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		ch.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		ch.tail = it.prev
	}
	it.next, it.prev = nil, nil
	if ch.head == nil {
		c.occ[level] &^= 1 << uint(slot)
	}
}

// Cancel removes a pending event. It reports whether the handle still
// referred to one. Removal is eager: the event leaves its queue slot
// now, not at its deadline.
func (c *Clock) Cancel(h Handle) bool {
	it := h.it
	if it == nil || it.gen != h.gen {
		return false
	}
	switch it.loc {
	case locFree:
		return false
	case locDue:
		c.due.remove(it)
	case locOverflow:
		c.overflow.remove(it)
	default:
		c.unlink(it)
	}
	c.live--
	c.release(it)
	return true
}

// advance moves the wheel cursor to the next occupied region, migrating
// one slot's chain toward the due heap. It reports whether any events
// remain. Each call does O(1) bitmap scans; an item is re-placed at
// most once per level over its lifetime, so expiry stays amortized
// O(1).
func (c *Clock) advance() bool {
	for level := 0; level < levels; level++ {
		shift := uint(level) * slotBits
		cursor := uint((c.curTick >> shift) & slotMask)
		// Slots strictly after the cursor within the current aligned
		// block; earlier slots belong to already-passed ticks.
		mask := c.occ[level] >> (cursor + 1) << (cursor + 1)
		if mask == 0 {
			continue
		}
		s := uint(bits.TrailingZeros64(mask))
		base := c.curTick &^ (int64(1)<<((uint(level)+1)*slotBits) - 1)
		c.curTick = base | int64(s)<<shift
		ch := &c.wheel[level][s]
		it := ch.head
		ch.head, ch.tail = nil, nil
		c.occ[level] &^= 1 << s
		for it != nil {
			next := it.next
			it.next, it.prev = nil, nil
			c.place(it)
			it = next
		}
		return true
	}
	if len(c.overflow) == 0 {
		return false
	}
	// The wheel is empty: jump the cursor to the earliest overflow
	// deadline and pull everything now within the horizon back in.
	c.curTick = int64(c.overflow[0].at) >> tickShift
	for len(c.overflow) > 0 {
		t := int64(c.overflow[0].at) >> tickShift
		if uint64(t^c.curTick) >= 1<<horizonBits {
			break
		}
		c.place(c.overflow.popMin())
	}
	return true
}

// peek returns the earliest pending event without running it, cascading
// wheel slots into the due heap as needed, or nil when none remain.
// Peeking may advance the wheel cursor (never the clock itself).
func (c *Clock) peek() *item {
	for {
		if len(c.due) > 0 {
			return c.due[0]
		}
		if !c.advance() {
			return nil
		}
	}
}

// runHead pops and runs the current due-heap head, advancing the clock
// to its instant.
func (c *Clock) runHead() {
	it := c.due.popMin()
	c.live--
	c.now = it.at
	fn, afn, arg := it.fn, it.afn, it.arg
	c.release(it)
	if afn != nil {
		afn(c.now, arg)
		return
	}
	fn(c.now)
}

// At schedules fn to run at virtual time at. Events in the past fire on
// the next Run/Step at the current time.
func (c *Clock) At(at time.Duration, fn Event) *Timer {
	return &Timer{c: c, h: c.schedule(at, fn, nil, nil)}
}

// After schedules fn to run d from now.
func (c *Clock) After(d time.Duration, fn Event) *Timer {
	return c.At(c.now+d, fn)
}

// Schedule queues fn to run at virtual time at with arg, without
// allocating: the callback and argument travel inside a pooled queue
// item and the returned Handle is a value. It is the hot-path
// counterpart of At — same clamping of past deadlines, same FIFO tie
// order — for callers that schedule per-request events and would
// otherwise allocate a closure and a Timer each time.
func (c *Clock) Schedule(at time.Duration, fn ArgEvent, arg any) Handle {
	return c.schedule(at, nil, fn, arg)
}

// Every schedules fn to run every d, starting d from now, until the
// returned Timer is stopped. fn runs before the next occurrence is
// queued, so stopping the timer inside fn prevents further runs.
func (c *Clock) Every(d time.Duration, fn Event) *Timer {
	if d <= 0 {
		panic("simtime: Every with non-positive interval")
	}
	t := &Timer{c: c}
	var tick Event
	tick = func(now time.Duration) {
		fn(now)
		if !t.stopped {
			t.h = c.schedule(c.now+d, tick, nil, nil)
		}
	}
	t.h = c.schedule(c.now+d, tick, nil, nil)
	return t
}

// Step runs the single earliest event, advancing the clock to its time.
// It reports whether an event was run.
func (c *Clock) Step() bool {
	if c.peek() == nil {
		return false
	}
	c.runHead()
	return true
}

// RunUntil runs events in order until the queue is empty or the next
// event is after deadline. The clock finishes exactly at deadline.
func (c *Clock) RunUntil(deadline time.Duration) {
	for {
		it := c.peek()
		if it == nil || it.at > deadline {
			break
		}
		c.runHead()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// RunBefore runs events strictly earlier than deadline, leaving the
// clock at the last executed event's instant. Unlike RunUntil it never
// advances the clock to the deadline itself and never runs events
// scheduled exactly at it — the cluster simulator uses this to
// interleave externally driven arrivals with queued completions, so an
// arrival at t goes before any event queued at t.
func (c *Clock) RunBefore(deadline time.Duration) {
	for {
		it := c.peek()
		if it == nil || it.at >= deadline {
			return
		}
		c.runHead()
	}
}

// Run drains the entire event queue. Use with care: self-rescheduling
// events (Every) make this run forever; prefer RunUntil.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// itemHeap is a binary min-heap of items ordered by (at, seq), used for
// the due set (current tick) and the far-future overflow. Items track
// their heap index, so removal by handle is O(log n).
type itemHeap []*item

func (h itemHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h itemHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}

func (h itemHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h itemHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

func (h *itemHeap) push(it *item) {
	it.idx = int32(len(*h))
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *itemHeap) popMin() *item {
	old := *h
	it := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[0].idx = 0
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return it
}

// remove deletes an item from an arbitrary heap position.
func (h *itemHeap) remove(it *item) {
	old := *h
	i := int(it.idx)
	n := len(old) - 1
	if i != n {
		old[i] = old[n]
		old[i].idx = int32(i)
	}
	old[n] = nil
	*h = old[:n]
	if i != n {
		h.down(i)
		h.up(i)
	}
}
