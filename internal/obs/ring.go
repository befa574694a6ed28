package obs

// ringChunk is how many records one chunk of a ring holds: 55 KB of
// events or spans, small enough that a log which sees ten records costs
// one modest allocation and large enough that a paper-scale ring
// (65 536 events) is a few hundred of them.
const ringChunk = 256

// ring is the bounded store behind EventLog and Tracer: the newest
// `capacity` records of an append-only sequence, overwriting the oldest
// once full. Record number seq (counting from zero) lives in slot
// seq % capacity, and the slots are held in chunks of ringChunk records
// that are allocated when the sequence first reaches them — nothing at
// construction beyond the chunk table, and no array is ever grown,
// copied or discarded. A slot is reused in place when the ring wraps, so
// storage a record owns (a decision's candidate table) is still there
// for its successor. The owner's mutex guards every method.
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
	i := r.appended % r.capacity
	r.appended++
	c := &r.chunks[i/ringChunk]
	if *c == nil {
		// The last chunk of a ring is as short as the capacity leaves it.
		first := i - i%ringChunk
		*c = make([]T, min(ringChunk, r.capacity-first))
	}
	return &(*c)[i%ringChunk]
}

// at returns the slot of record seq, which must lie in [oldest, appended).
func (r *ring[T]) at(seq uint64) *T {
	i := seq % r.capacity
	return &r.chunks[i/ringChunk][i%ringChunk]
}

// len reports how many records are stored.
func (r *ring[T]) len() int { return int(min(r.appended, r.capacity)) }

// oldest is the sequence number of the oldest record still stored.
func (r *ring[T]) oldest() uint64 { return r.appended - uint64(r.len()) }
