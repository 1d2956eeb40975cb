package sim

import "math/bits"

// calendarQueue is a calendar (bucket-ring) event queue: the bounded-delay
// alternative to the 4-ary heap. Delays are at most τ = 1, so — by
// induction over the run — every delivery scheduled while the clock reads
// `now` lands at most one τ ahead (the FIFO clamp only reuses an earlier
// in-range time), and a ring of nb time buckets spanning 2τ always covers
// the pending deliveries. Push drops an event into the bucket of its time
// slot; pop drains the current bucket and advances along an occupancy
// bitmap. Both are O(1) amortized, independent of how many events are
// pending — the 4-ary heap's O(log k) comparisons per event disappear,
// which is what makes million-node sparse runs cheap.
//
// Correctness does not depend on the horizon: adversarial wake times are
// unbounded, so events beyond the ring (slot ≥ curSlot+nb) wait in an
// overflow min-heap and migrate into the ring as the clock advances. Every
// event migrates at most once. Pushes into the past (possible only from
// the differential tests — the engine's clock is monotone) are clamped
// into the current bucket, where the (at, seq) sort still orders them
// first.
//
// Invariants between operations:
//
//  1. ring events live in the buckets of slots [curSlot, curSlot+nb), each
//     in its own slot's bucket — except late pushes, clamped into the
//     curSlot bucket (which only lowers that bucket's minimum);
//  2. each bucket's live region evs[head:] is sorted by (at, seq);
//  3. every overflow event has slot ≥ curSlot+nb;
//  4. buckets of slots in (-∞, curSlot) are empty.
//
// Slots partition time monotonically (slotOf is non-decreasing in at), so
// the first occupied bucket at or after curSlot holds the global minimum,
// and within a bucket the sorted order finishes the job: pops come out in
// exactly the (at, seq) order the heap would produce — byte-identical
// results, pinned by the differential, fuzz, and digest suites.
type calendarQueue struct {
	buckets  [][]event
	head     []int32  // per-bucket index of the first live event
	occ      []uint64 // occupancy bitmap, one bit per bucket
	nb       int      // number of buckets, a power of two ≥ 64
	mask     int64    // nb - 1
	invWidth float64  // buckets per time unit; ring spans nb/invWidth = 2τ
	curSlot  int64    // the ring covers slots [curSlot, curSlot+nb)
	ring     int      // live events in the ring
	overflow eventHeap
}

// calendarMaxSlot caps slot numbers so huge wake times cannot overflow the
// int64 slot arithmetic; everything beyond lives in the overflow heap.
const calendarMaxSlot = int64(1) << 62

func (q *calendarQueue) slotOf(at Time) int64 {
	s := float64(at) * q.invWidth
	if s >= float64(calendarMaxSlot) {
		return calendarMaxSlot
	}
	if s < 0 {
		return 0
	}
	return int64(s)
}

func (q *calendarQueue) len() int { return q.ring + q.overflow.len() }

// reset empties the queue and sizes the ring from the capacity hint,
// reusing bucket storage when the ring size is unchanged. The bucket count
// is a power of two so slot→bucket is a mask, and the ring always spans 2τ
// (invWidth = nb/2), so in-horizon deliveries never touch the overflow
// heap regardless of nb.
func (q *calendarQueue) reset(capacity int) {
	nb := 256
	for nb < capacity && nb < 1<<14 {
		nb <<= 1
	}
	if nb != q.nb {
		q.buckets = make([][]event, nb)
		q.head = make([]int32, nb)
		q.occ = make([]uint64, nb/64)
		q.nb = nb
		q.mask = int64(nb - 1)
		q.invWidth = float64(nb) / 2
	} else {
		for i, evs := range q.buckets {
			q.buckets[i] = evs[:0]
			q.head[i] = 0
		}
		clear(q.occ)
	}
	q.curSlot = 0
	q.ring = 0
	q.overflow.reset(0)
}

// push inserts ev into its slot's bucket, or the overflow heap when the
// slot is beyond the ring horizon.
func (q *calendarQueue) push(ev event) {
	s := q.slotOf(ev.at)
	if s >= q.curSlot+int64(q.nb) {
		q.overflow.push(ev)
		return
	}
	if s < q.curSlot {
		s = q.curSlot // past push: the current bucket, ordered by (at, seq)
	}
	q.insert(int(s&q.mask), ev)
}

// insert places ev into bucket b by backward scan from the end — the
// engine's pushes are mostly non-decreasing within a slot, so this is an
// append in the common case. Ties on at break by seq, and pushes carry the
// largest seq so far, so tie-heavy (quantized) delay patterns also append.
func (q *calendarQueue) insert(b int, ev event) {
	//lint:noalloc-ok each bucket grows to its high-water occupancy, then reuses the array (reset keeps capacity)
	evs := append(q.buckets[b], ev)
	lo := int(q.head[b])
	i := len(evs) - 1
	for i > lo && eventLess(&ev, &evs[i-1]) {
		evs[i] = evs[i-1]
		i--
	}
	evs[i] = ev
	q.buckets[b] = evs
	q.occ[b>>6] |= 1 << (uint(b) & 63)
	q.ring++
}

// position advances the ring to the first occupied bucket — migrating
// overflow events that came into the horizon — and returns its index. The
// advance is pure clock movement: it never reorders events, so both pop
// and peek share it.
func (q *calendarQueue) position() int {
	if q.ring == 0 {
		// Everything pending is beyond the horizon: jump the ring to the
		// overflow minimum and migrate what now fits.
		q.curSlot = q.slotOf(q.overflow.a[0].at)
		q.migrate()
	}
	b := int(q.curSlot & q.mask)
	if q.occ[b>>6]&(1<<(uint(b)&63)) == 0 {
		d := q.nextOccupiedDist(b)
		q.curSlot += int64(d)
		// Advancing the clock may bring overflow events into the ring; they
		// all land strictly after the new curSlot (their slots were beyond
		// the old horizon), so b's bucket still holds the minimum.
		q.migrate()
		b = int(q.curSlot & q.mask)
	}
	return b
}

// peek implements eventQueue: the head of the first occupied bucket.
func (q *calendarQueue) peek() *event {
	b := q.position()
	return &q.buckets[b][q.head[b]]
}

// pop removes and returns the minimum event.
func (q *calendarQueue) pop() event {
	b := q.position()
	evs := q.buckets[b]
	h := q.head[b]
	ev := evs[h]
	h++
	if int(h) == len(evs) {
		q.buckets[b] = evs[:0]
		q.head[b] = 0
		q.occ[b>>6] &^= 1 << (uint(b) & 63)
	} else {
		q.head[b] = h
	}
	q.ring--
	return ev
}

// migrate restores invariant 3: overflow events whose slots entered the
// ring move into their buckets.
func (q *calendarQueue) migrate() {
	horizon := q.curSlot + int64(q.nb)
	for q.overflow.len() > 0 {
		s := q.slotOf(q.overflow.a[0].at)
		if s >= horizon {
			break
		}
		q.insert(int(s&q.mask), q.overflow.pop())
	}
}

// nextOccupiedDist returns the distance (in slots, ≥ 1) from bucket b to
// the next occupied bucket in ring order, scanning the occupancy bitmap a
// word at a time. The ring is non-empty when called.
func (q *calendarQueue) nextOccupiedDist(b int) int {
	w := b >> 6
	bit := uint(b) & 63
	// Bits strictly after b in its own word (two shifts: bit may be 63).
	if word := q.occ[w] >> bit >> 1; word != 0 {
		return bits.TrailingZeros64(word) + 1
	}
	nw := len(q.occ)
	for i := 1; i <= nw; i++ {
		if word := q.occ[(w+i)%nw]; word != 0 {
			return i<<6 - int(bit) + bits.TrailingZeros64(word)
		}
	}
	panic("sim: calendar queue ring empty in nextOccupiedDist")
}

// memBytes implements eventQueue: bucket headers, bucket storage, the
// occupancy bitmap, and the overflow heap.
func (q *calendarQueue) memBytes() int64 {
	total := int64(len(q.buckets))*sliceHeaderBytes + int64(len(q.head))*4 + int64(len(q.occ))*8
	for _, evs := range q.buckets {
		total += int64(cap(evs)) * eventBytes
	}
	return total + q.overflow.memBytes()
}
