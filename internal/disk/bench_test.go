package disk

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// BenchmarkSequentialStream measures simulating a sequential read stream
// through one disk.
func BenchmarkSequentialStream(b *testing.B) {
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, FIFO)
	max := g.Capacity() / g.SectorSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read((int64(i)*64)%max, 8)
		if i%1024 == 1023 {
			b.StopTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSCANQueue measures elevator picking with a deep random queue.
func BenchmarkSCANQueue(b *testing.B) {
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, SCAN)
	rng := rand.New(rand.NewSource(1))
	max := g.Capacity()/g.SectorSize - 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(rng.Int63n(max), 4)
		if i%512 == 511 {
			b.StopTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkArrayRead measures a striped array request end to end.
func BenchmarkArrayRead(b *testing.B) {
	k := sim.NewKernel()
	a := NewArray(k, "raid", 4, testGeo(), FIFO, sim.Millisecond)
	max := a.Capacity() - 64<<10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Read((int64(i)*64<<10)%max, 64<<10)
		if i%256 == 255 {
			b.StopTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDiskSubmitCall measures the disk hot path: one OnDone-form
// request submitted to a parked drive and run through its wake-up,
// transfer and completion events. detgate pins it at 0 allocs/op.
func BenchmarkDiskSubmitCall(b *testing.B) {
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, FIFO)
	max := g.Capacity()/g.SectorSize - 8
	done := 0
	req := &Request{Count: 8, OnDone: func(a any, _ error) { *a.(*int)++ }, DoneArg: &done}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Sector = (int64(i) * 4099) % max
		d.Submit(req)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("%d of %d requests completed", done, b.N)
	}
}
