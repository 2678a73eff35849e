package sim

// This file holds a binary min-heap over events: the plainest correct
// realization of the kernel's (time, seq) order, kept as the reference
// the ladder queue (ladder.go) is tested against.
// TestQueueDifferentialDistributions requires the ladder to pop in
// exactly its order, FuzzQueueOrder also compares peeks and resident
// counts after every operation, and BenchmarkQueuePushPop measures the
// ladder's per-operation cost against it.

// eventHeap is a min-heap ordered by (t, seq), with the sift operations
// written out directly rather than through container/heap, so the
// benchmark compares queue disciplines rather than interface boxing.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

// push adds e and restores the heap by sifting it up.
func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// peek returns the minimum event's time, mirroring ladderQueue.peek.
func (h eventHeap) peek() (Time, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].t, true
}
