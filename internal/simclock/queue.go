package simclock

// eventQueue is the Sim's pending-event set: a 4-ary min-heap on the total
// order (at, seq). Each slot carries its event's key inline, so a sift
// compares keys without dereferencing events, and moves only slots — the
// events themselves are never written while they sit in the queue. Sifts
// move a hole instead of swapping pairwise. Because seq is unique, the key
// order is total and the pop order does not depend on the heap's shape or
// arity.
type eventQueue []queueSlot

// queueSlot is one queued event with its ordering key.
type queueSlot struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports whether slot a pops before slot b.
func (a *queueSlot) before(b *queueSlot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push queues e under its current (at, seq) key.
func (q *eventQueue) push(e *Event) {
	e.queued = true
	x := queueSlot{at: e.at, seq: e.seq, ev: e}
	h := append(*q, queueSlot{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0].ev
	top.queued = false
	n := len(h) - 1
	x := h[n]
	h[n] = queueSlot{} // drop the event reference from the spare capacity
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j, end := c+1, min(c+4, n); j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&x) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = x
	}
	*q = h
	return top
}

// clear drops every queued event, keeping the backing array.
func (q *eventQueue) clear() {
	h := *q
	for i := range h {
		h[i].ev.queued = false
		h[i] = queueSlot{}
	}
	*q = h[:0]
}

// lane is the constant-delay FIFO of one delay d (see the package doc):
// events queued at now + d arrive in (at, seq) order, so it pops them in
// the heap's order with O(1) pushes and pops. The ring's length is zero or
// a power of two.
type lane struct {
	d    Time
	ring []queueSlot
	head int
	n    int
}

// front is the lane's earliest slot. The lane must not be empty.
func (l *lane) front() *queueSlot { return &l.ring[l.head] }

// push queues e at the tail, reporting false — and queueing nothing —
// when e would pop before the tail.
func (l *lane) push(e *Event) bool {
	x := queueSlot{at: e.at, seq: e.seq, ev: e}
	if l.n > 0 && x.before(&l.ring[(l.head+l.n-1)&(len(l.ring)-1)]) {
		return false
	}
	if l.n == len(l.ring) {
		ring := make([]queueSlot, max(8, 2*len(l.ring)))
		for i := range l.n {
			ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	e.queued = true
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = x
	l.n++
	return true
}

// pop removes and returns the earliest event. The lane must not be empty.
func (l *lane) pop() *Event {
	x := &l.ring[l.head]
	e := x.ev
	e.queued = false
	*x = queueSlot{} // drop the event reference from the ring
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return e
}

// clear drops every queued event, keeping the ring.
func (l *lane) clear() {
	for ; l.n > 0; l.n-- {
		x := &l.ring[l.head]
		x.ev.queued = false
		*x = queueSlot{}
		l.head = (l.head + 1) & (len(l.ring) - 1)
	}
	l.head = 0
}
