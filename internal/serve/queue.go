package serve

import (
	"container/heap"
	"errors"
	"sync"
)

// ErrQueueFull is returned by push when the queue is at capacity; the HTTP
// layer maps it to 429 + Retry-After (backpressure, not failure).
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned by push once the server has begun draining.
var ErrDraining = errors.New("serve: server draining")

// queue is a bounded priority queue of jobs: higher Priority pops first,
// FIFO within a priority (by submission sequence). close() stops intake
// while letting workers drain what is already queued.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  jobHeap
	seq    uint64
	cap    int
	closed bool
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job, assigning its FIFO sequence number.
func (q *queue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if len(q.items) >= q.cap {
		q.pruneCanceled()
		if len(q.items) >= q.cap {
			return ErrQueueFull
		}
	}
	q.seq++
	j.seq = q.seq
	heap.Push(&q.items, j)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available or the queue is closed and empty.
// Jobs canceled while queued are discarded here or by a push that finds the
// queue full (their state is already terminal), so Cancel itself needs no
// heap surgery.
func (q *queue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for len(q.items) > 0 {
			j := heap.Pop(&q.items).(*Job)
			if j.State() == StateCanceled {
				continue
			}
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// pruneCanceled drops jobs canceled while queued, so dead entries never
// hold slots a live submission needs; callers hold q.mu.
func (q *queue) pruneCanceled() {
	live := q.items[:0]
	for _, j := range q.items {
		if j.State() != StateCanceled {
			live = append(live, j)
		}
	}
	clear(q.items[len(live):])
	q.items = live
	heap.Init(&q.items)
}

// close stops intake and wakes every waiting worker; queued jobs still pop.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth returns the current queue length. Jobs canceled while queued count
// until a pop or a full-queue push discards them.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// jobHeap orders by priority descending, then submission sequence
// ascending.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Spec.Priority != h[j].Spec.Priority {
		return h[i].Spec.Priority > h[j].Spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return out
}
