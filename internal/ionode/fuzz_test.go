package ionode

import (
	"bytes"
	"fmt"
	"testing"
)

// fairReplay decodes data into a fair queueing policy plus an interleaved
// push/pop schedule, drives a standalone fairQueue through it, and
// returns the dispatch order as a printable transcript. The transcript
// is everything observable about the scheduler: (tenant, seq, tag) per
// dispatch plus the end-of-run instrumentation.
func fairReplay(data []byte) string {
	if len(data) < 4 {
		return ""
	}
	pol := FairPolicy{
		Tenants: 1 + int(data[0]%8),
		Slots:   1 + int(data[1]%4),
		FIFO:    data[2]&1 == 1,
	}
	// Weights from the header byte: empty (all 1) or a short cycle.
	switch data[2] % 3 {
	case 1:
		pol.Weights = []int{4, 2, 1}
	case 2:
		pol.Weights = []int{1 + int(data[3]%8), 1}
	}
	q := newFairQueue(pol)

	var out bytes.Buffer
	queued := 0
	for i := 4; i+1 < len(data); i += 2 {
		b, c := data[i], data[i+1]
		if b%4 == 0 && queued > 0 {
			op := q.pop()
			if op == nil {
				fmt.Fprintf(&out, "pop nil with %d queued\n", queued)
				continue
			}
			queued--
			fmt.Fprintf(&out, "pop t=%d seq=%d tag=%d\n", op.tenant, op.fseq, op.tag)
			continue
		}
		op := &srvOp{
			tenant: int(b) % pol.Tenants,
			n:      1 + int64(c)<<8,
		}
		q.push(op)
		queued++
		fmt.Fprintf(&out, "push t=%d seq=%d tag=%d\n", op.tenant, op.fseq, op.tag)
	}
	for {
		op := q.pop()
		if op == nil {
			break
		}
		queued--
		fmt.Fprintf(&out, "drain t=%d seq=%d tag=%d\n", op.tenant, op.fseq, op.tag)
	}
	fmt.Fprintf(&out, "end queued=%d v=%d viol=%d maxlag=%d maxcost=%d norm=%v\n",
		queued, q.v, q.minTagViol, q.maxLag, q.maxWeighted, q.norm)
	return out.String()
}

// FuzzFairOrder proves the WFQ dispatch order is a pure function of the
// arrival schedule: replaying any byte-derived schedule twice yields an
// identical transcript, every queued request is eventually dispatched,
// and no dispatch ever goes below the virtual time (tags are monotone).
func FuzzFairOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 200, 9, 100, 0, 0, 17, 50, 0, 0})
	f.Add([]byte{3, 1, 1, 5, 7, 255, 7, 255, 7, 1, 0, 0, 2, 9})
	f.Add([]byte{7, 2, 2, 9, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 5, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fairReplay(data)
		b := fairReplay(data)
		if a != b {
			t.Fatalf("dispatch order is not a pure function of the schedule:\n--- first\n%s--- second\n%s", a, b)
		}
		if bytes.Contains([]byte(a), []byte("pop nil")) {
			t.Fatalf("pop returned nil with requests queued:\n%s", a)
		}
		if bytes.Contains([]byte(a), []byte("viol=")) && !bytes.Contains([]byte(a), []byte(" viol=0 ")) {
			t.Fatalf("min-tag invariant violated:\n%s", a)
		}
		if a != "" && !bytes.Contains([]byte(a), []byte("end queued=0 ")) {
			t.Fatalf("requests left queued after full drain (starvation):\n%s", a)
		}
	})
}
