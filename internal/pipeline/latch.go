package pipeline

// Latch is a typed FIFO buffer between two pipeline stages: the producer
// pushes at the tail, the consumer peeks and pops at the head, and a
// flush-style Filter drops entries wholesale (wrong-path squash). It is a
// slice with a head cursor rather than a ring so batch production (a
// fetch group) amortises to one append each. Storage is recycled once the
// consumer fully drains, and a push into a full array slides the live
// entries to its front, so a latch that never drains keeps its capacity.
//
// A Latch imposes no capacity of its own — pipeline structures bound
// occupancy with their own rules (e.g. decode checks Len before accepting
// a fetch group), so the bound stays where the semantics live.
type Latch[T any] struct {
	buf  []T
	head int
}

// Len returns the number of buffered entries.
func (l *Latch[T]) Len() int { return len(l.buf) - l.head }

// Grow pre-sizes the latch's backing array to hold at least n entries, so
// a latch whose occupancy is bounded by pipeline rules (decode's depth
// check) never reallocates on the hot path. A no-op when capacity already
// suffices or the latch is mid-use.
func (l *Latch[T]) Grow(n int) {
	if cap(l.buf) >= n || len(l.buf) > 0 || l.head > 0 {
		return
	}
	l.buf = make([]T, 0, n)
}

// Push appends v at the tail. When the array is full but entries have
// been consumed, the live entries slide to its front first (the vacated
// slots are cleared, so consumed entries are not retained) instead of
// growing it.
func (l *Latch[T]) Push(v T) {
	if len(l.buf) == cap(l.buf) && l.head > 0 {
		n := copy(l.buf, l.buf[l.head:])
		clear(l.buf[n:])
		l.buf = l.buf[:n]
		l.head = 0
	}
	l.buf = append(l.buf, v)
}

// Peek returns the head entry without consuming it.
func (l *Latch[T]) Peek() (T, bool) {
	if l.head >= len(l.buf) {
		var zero T
		return zero, false
	}
	return l.buf[l.head], true
}

// Pop consumes and returns the head entry. When the latch drains empty its
// storage is reset so the backing array is reused by later pushes.
func (l *Latch[T]) Pop() (T, bool) {
	if l.head >= len(l.buf) {
		var zero T
		return zero, false
	}
	v := l.buf[l.head]
	l.head++
	if l.head == len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
	}
	return v, true
}

// Filter keeps only entries satisfying keep, preserving order and
// compacting storage (the wrong-path squash on a front-end resteer).
func (l *Latch[T]) Filter(keep func(T) bool) {
	kept := l.buf[:0]
	for i := l.head; i < len(l.buf); i++ {
		if keep(l.buf[i]) {
			kept = append(kept, l.buf[i])
		}
	}
	l.buf = kept
	l.head = 0
}

// At returns the i-th buffered entry (0 = head) without consuming it.
// Checkpointing walks latch contents with it; i must be in [0, Len()).
func (l *Latch[T]) At(i int) T {
	return l.buf[l.head+i]
}

// Reset discards every entry.
func (l *Latch[T]) Reset() {
	l.buf = l.buf[:0]
	l.head = 0
}
