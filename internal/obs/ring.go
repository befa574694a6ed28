package obs

// ringChunk is how many records one chunk of a ring holds: 6 KB of
// event slots or 28 KB of finished spans, each filling its allocation
// exactly, small enough that a log which sees ten records costs one
// modest allocation and large enough that a paper-scale ring (65 536
// events) is a few hundred of them.
const ringChunk = 256

// ring is the bounded store behind EventLog and Tracer: the newest
// `capacity` records of an append-only sequence, overwriting the oldest
// once full. Record number seq (counting from zero) lives in slot
// seq % capacity, and the slots are held in chunks of ringChunk records
// that are allocated when the sequence first reaches them — nothing at
// construction beyond the chunk table, and no array is ever grown,
// copied or discarded. A slot is reused in place when the ring wraps;
// the event log keeps a decision's rows, and the fields other events
// carry, beside each chunk (events.go), where they are still there for
// the slot's successor. The owner's mutex guards every method.
type ring[T any] struct {
	capacity uint64
	appended uint64
	chunks   [][]T
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{
		capacity: uint64(capacity),
		chunks:   make([][]T, (capacity+ringChunk-1)/ringChunk),
	}
}

// push advances the sequence and returns the slot of the new record:
// zero on the ring's first lap, the record it overwrites afterwards.
func (r *ring[T]) push() *T {
	c, off := r.place(r.appended)
	r.appended++
	if r.chunks[c] == nil {
		// The last chunk of a ring is as short as the capacity leaves it.
		r.chunks[c] = make([]T, min(ringChunk, int(r.capacity)-c*ringChunk))
	}
	return &r.chunks[c][off]
}

// place returns the chunk of record seq's slot and the slot's offset in
// it.
func (r *ring[T]) place(seq uint64) (chunk, off int) {
	i := int(seq % r.capacity)
	return i / ringChunk, i % ringChunk
}

// at returns the slot of record seq, which must lie in [oldest, appended).
func (r *ring[T]) at(seq uint64) *T {
	c, off := r.place(seq)
	return &r.chunks[c][off]
}

// len reports how many records are stored.
func (r *ring[T]) len() int { return int(min(r.appended, r.capacity)) }

// oldest is the sequence number of the oldest record still stored.
func (r *ring[T]) oldest() uint64 { return r.appended - uint64(r.len()) }
