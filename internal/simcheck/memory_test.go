package simcheck

import (
	"runtime"
	"testing"
)

// scaleSweepHeapBound is the heap a 40-seed scale sweep may still hold
// once it is over. Machine.Run releases every process a run starts, so a
// finished seed pins nothing and the bound does not grow with the seed
// count; without the release each 256x64 seed leaks its daemons and the
// machine they reference, and the same sweep ends holding well over
// 100 MB.
const scaleSweepHeapBound = 32 << 20

// TestScaleSweepBoundedMemory runs a 40-seed scale sweep and checks the
// heap still in use after a forced collection at the end.
func TestScaleSweepBoundedMemory(t *testing.T) {
	failed := CheckScaleRange(1, 40, 2, true, nil)
	if len(failed) > 0 {
		t.Fatalf("scale seed %d failed", failed[0].Seed)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > scaleSweepHeapBound {
		t.Fatalf("%.1f MB of heap in use after a 40-seed scale sweep, bound %d MB",
			float64(ms.HeapInuse)/(1<<20), scaleSweepHeapBound>>20)
	}
	t.Logf("heap in use after the sweep: %.1f MB", float64(ms.HeapInuse)/(1<<20))
}
