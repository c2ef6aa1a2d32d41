// Package fifo provides the unbounded first-in first-out queue the
// per-frame paths use for frames waiting on a MAC or on a wire.
package fifo

// Queue is a FIFO over one backing array. Pop advances a head index
// instead of reslicing, and a Push into a full array first slides the
// live entries down over the consumed slots, so a queue whose length
// stays bounded reuses one array for its whole life instead of
// reallocating as it cycles. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends x at the tail.
func (q *Queue[T]) Push(x T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x)
}

// Pop removes and returns the head. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	q.reset()
	return x
}

// DropTail removes the most recently pushed entry. It panics on an
// empty queue.
func (q *Queue[T]) DropTail() {
	n := len(q.buf) - 1
	var zero T
	q.buf[n] = zero
	q.buf = q.buf[:n]
	q.reset()
}

// reset rewinds an emptied queue to the start of its array.
func (q *Queue[T]) reset() {
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
