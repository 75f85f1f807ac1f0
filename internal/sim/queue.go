package sim

import (
	"math"
	"math/bits"
)

// maxTime is the horizon RunAll settles the queue against.
const maxTime Time = math.MaxInt64

// queue is the engine's pending-event set: a monotone radix heap (Ahuja,
// Mehlhorn, Orlin & Tarjan, "Faster algorithms for the shortest path
// problem", JACM 1990). It relies on the engine's clock never moving
// backwards: every queued event is at or after last, the time of the most
// recently extracted minimum, because events are only ever queued at or
// after Now and Now never falls below last (see settle).
//
// An event at time at lives in bucket bits.Len64(at ^ last): bucket 0 holds
// exactly the events at last, and bucket i > 0 those whose time first
// differs from last in bit i-1. Times are non-negative, so 64 buckets
// cover every int64 time. When bucket 0 runs dry, settle takes the smallest
// time m in the lowest non-empty bucket (each bucket keeps its minimum as
// events are filed, so peeking is O(1)), moves last up to m and refiles that
// bucket: every member lands strictly lower, which bounds the work per event
// by the 64 levels it can fall through, and higher buckets keep their index
// because m shares last's bits above the refiled bucket. Unlike a comparison
// heap, neither push nor pop compares an event against its neighbours, so
// the hot loop has no data-dependent branch to mispredict.
//
// Same-instant events must still fire in sequence order, and sequence
// numbers do not arrive in order (Timer and AtCallSeq re-queue under older
// reserved numbers; a refiled bucket is unordered), so bucket 0 is a small
// binary min-heap by seq. The fire order is the total (at, seq) order of the
// comparison heap this replaced, cancelled events included: they stay in
// their bucket until popped, so Pending and PendingCensus are unchanged too.
type queue struct {
	last Time         // floor: no queued event is earlier
	n    int          // queued events, cancelled ones included
	mask uint64       // bit i set while bucket i > 0 is non-empty
	b    [64][]*Event // b[0]: min-heap by seq; b[i>0]: unordered
	lo   [64]Time     // earliest time in bucket i > 0; maxTime when empty
}

// push files ev by its time. The caller guarantees ev.at >= q.last.
func (q *queue) push(ev *Event) {
	q.n++
	i := bits.Len64(uint64(ev.at ^ q.last))
	if i == 0 {
		q.push0(ev)
		return
	}
	q.file(i, ev)
}

// file appends ev to bucket i > 0, keeping the bucket's minimum.
func (q *queue) file(i int, ev *Event) {
	q.lo[i] = min(q.lo[i], ev.at)
	q.b[i] = append(q.b[i], ev)
	q.mask |= 1 << i
}

// settle reports whether an event at or before until is queued, and if so
// makes bucket 0 hold the earliest ones. It leaves the queue untouched when
// the earliest event lies beyond until: raising last past until would file
// a later push between until and that event below the floor.
func (q *queue) settle(until Time) bool {
	if len(q.b[0]) > 0 {
		return q.last <= until
	}
	if q.mask == 0 {
		// Empty. Cancelled pops may have raised last above Now; any floor
		// at or below every future time is sound, and 0 is one.
		q.last = 0
		return false
	}
	i := bits.TrailingZeros64(q.mask)
	m := q.lo[i]
	if m > until {
		return false
	}
	q.last = m
	bk := q.b[i]
	q.b[i] = bk[:0]
	q.mask &^= 1 << i
	q.lo[i] = maxTime
	for _, ev := range bk {
		if j := bits.Len64(uint64(ev.at ^ m)); j > 0 {
			q.file(j, ev)
		} else {
			q.push0(ev)
		}
	}
	// The stale pointers left in bk's backing array are engine-owned
	// events, live through the free list anyway.
	return true
}

// pop removes and returns the lowest-seq event at last. Call it only after
// settle reported true.
func (q *queue) pop() *Event {
	h := q.b[0]
	top := h[0]
	n := len(h) - 1
	ev := h[n]
	h = h[:n]
	q.b[0] = h
	q.n--
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].seq < h[c].seq {
			c++
		}
		if ev.seq <= h[c].seq {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
	return top
}

// push0 adds an event at last to bucket 0's seq heap. Fresh events carry
// the highest seq so far and stop at the first comparison.
func (q *queue) push0(ev *Event) {
	h := append(q.b[0], ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if h[p].seq <= ev.seq {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	q.b[0] = h
}
