package sim

// Calendar is a timer store for a fixed set of ids, 0 to n-1, each with
// at most one entry pending: the think timers of a closed-loop client
// group, where every client is always either thinking or waiting on a
// request. An entry is a 16-byte stamp (at, seq) and a 4-byte bucket
// link in two pointer-free arrays, so the store costs 20 bytes an id
// and the collector never scans it.
//
// The calendar files the whole set in the engine as one pooled timer
// node, always at its earliest stamp, and the node fires once per entry.
// An entry takes the engine's next seq when it is filed, as a timer
// scheduled at that point would, and re-filing the node takes none, so
// the engine fires every entry at the (at, seq) place a timer of its own
// would have had: fire order, Fired and the random draws around them are
// unchanged. Engine.Pending counts a non-empty calendar as one timer.
//
// It is a calendar queue (Brown, 1988): a ring of calBuckets buckets of
// 2^calShift ns, each an unsorted list of ids, behind a cursor. Every
// entry due in a bucket before the cursor is in a near heap, every entry
// due within the ring's reach after it is in the ring, and anything due
// later waits in a far heap. Only firing moves the cursor: when the near
// heap is empty it moves past the next non-empty bucket and pushes that
// bucket's entries into the near heap.
type Calendar struct {
	e     *Engine
	fire  func(id int)
	stamp []stamp // per id; seq is 0 while the id is idle
	link  []int32 // per id: the next id in its bucket, -1 at the end
	node  *timerNode

	cur  int64 // the cursor, in buckets
	ring int   // entries filed in the ring
	near calHeap
	far  calHeap
	head [calBuckets]int32 // each bucket's first id, -1 when empty
	bits [calBuckets / 64]uint64
}

// The ring holds 4 096 buckets of 2^24 ns (16.8 ms), 68.7 s in all. A
// paper-scale group fires about 168 entries a bucket, so the near heap
// stays a few hundred ids; an exponential 7 s think time passes the
// ring's reach once in 18 000 draws. The geometry sets cost, never order
// (docs/bench-history.md, "PR 45").
const (
	calShift   = 24
	calBits    = 12
	calBuckets = 1 << calBits
)

// stamp is when an entry is due: its time and the engine seq it was
// filed under, which breaks ties at one instant.
type stamp struct {
	at  Time
	seq uint64
}

func (a stamp) before(b stamp) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// NewCalendar returns a calendar of n idle ids whose entries call fire
// with their id when they come due.
func NewCalendar(e *Engine, n int, fire func(id int)) *Calendar {
	if fire == nil {
		panic("sim: NewCalendar with nil fire")
	}
	c := &Calendar{
		e:     e,
		fire:  fire,
		stamp: make([]stamp, n),
		link:  make([]int32, n),
		cur:   int64(e.now) >> calShift,
	}
	for i := range c.head {
		c.head[i] = -1
	}
	return c
}

// After files an entry for id, due delay from now; a negative delay is
// treated as zero. The id must be idle: calling After on an id whose
// entry is pending panics. An entry that comes due becomes idle before
// fire runs, so fire may file the next one.
func (c *Calendar) After(id int, delay Time) {
	s := &c.stamp[id]
	if s.seq != 0 {
		panic("sim: Calendar.After on a pending id")
	}
	if delay < 0 {
		delay = 0
	}
	c.e.seq++
	*s = stamp{c.e.now + delay, c.e.seq}
	c.file(int32(id))
	if c.node == nil || s.before(stamp{c.node.at, c.node.seq}) {
		c.arm(*s)
	}
}

// calendarEvent is the event the calendar's node fires. A type of its
// own keeps Fire out of Calendar's methods.
type calendarEvent Calendar

func (ev *calendarEvent) Fire() { (*Calendar)(ev).fireNext() }

// fireNext runs when the engine fires the node, which is filed at the
// earliest stamp: it pops that entry, files the node at the next one and
// calls fire.
func (c *Calendar) fireNext() {
	c.node = nil // the engine recycled it
	if len(c.near) == 0 {
		c.advance()
	}
	id := c.near.popMin().id
	c.stamp[id].seq = 0
	if len(c.near) == 0 {
		c.advance()
	}
	if len(c.near) > 0 {
		c.arm(c.near[0].stamp)
	}
	c.fire(int(id))
}

// arm files the node at s, taking one from the engine's free list when
// the calendar has none filed.
func (c *Calendar) arm(s stamp) {
	n := c.node
	if n == nil {
		n = c.e.alloc()
		n.ev = (*calendarEvent)(c)
		c.node = n
	} else {
		c.e.unfile(n)
	}
	n.at, n.seq = s.at, s.seq
	c.e.file(n)
}

// file puts id where its stamp belongs relative to the cursor. Buckets
// are compared as numbers, never as ends in nanoseconds, which would
// overflow near the top of the time range.
func (c *Calendar) file(id int32) {
	s := c.stamp[id]
	b := int64(s.at) >> calShift
	switch {
	case b < c.cur:
		c.near.push(calItem{s, id})
	case b-c.cur < calBuckets:
		i := b & (calBuckets - 1)
		c.link[id] = c.head[i]
		c.head[i] = id
		c.bits[i>>6] |= 1 << (i & 63)
		c.ring++
	default:
		c.far.push(calItem{s, id})
	}
}

// advance moves the cursor past the next non-empty bucket and pushes its
// entries into the near heap. With the ring empty, the cursor first
// jumps to the far root's bucket; each move hands the ring whatever in
// the far heap has come within its reach.
func (c *Calendar) advance() {
	if c.ring == 0 {
		if len(c.far) == 0 {
			return
		}
		c.cur = int64(c.far[0].at) >> calShift
		c.refill()
	}
	from := int(c.cur & (calBuckets - 1))
	i := nextSet(c.bits[:], from)
	c.cur += int64((i-from)&(calBuckets-1)) + 1
	id := c.head[i]
	c.head[i] = -1
	c.bits[i>>6] &^= 1 << (i & 63)
	for id >= 0 {
		c.near.push(calItem{c.stamp[id], id})
		c.ring--
		id = c.link[id]
	}
	c.refill()
}

// refill files the far entries that have come within the ring's reach.
func (c *Calendar) refill() {
	for len(c.far) > 0 && int64(c.far[0].at)>>calShift-c.cur < calBuckets {
		c.file(c.far.popMin().id)
	}
}

// calItem is a heap slot: an id with its stamp beside it, so a sift
// compares adjacent slots instead of looking stamps up by id.
type calItem struct {
	stamp
	id int32
}

// calHeap is a 4-ary min-heap of ids ordered by stamp, the shape of the
// engine's timerHeap without positions written back: a calendar entry
// leaves a heap only from its root.
type calHeap []calItem

func (h *calHeap) push(it calItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !it.before(s[parent].stamp) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
}

func (h *calHeap) popMin() calItem {
	s := *h
	root := s[0]
	last := len(s) - 1
	it := s[last]
	*h = s[:last]
	s = s[:last]
	if last == 0 {
		return root
	}
	i := 0
	for {
		first := heapArity*i + 1
		if first >= last {
			break
		}
		end := min(first+heapArity, last)
		best := first
		for c := first + 1; c < end; c++ {
			if s[c].before(s[best].stamp) {
				best = c
			}
		}
		if !s[best].before(it.stamp) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = it
	return root
}
