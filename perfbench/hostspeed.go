package main

import (
	"sync"
	"time"
)

// Host-speed scaling. On the reference host (a 2-CPU VM that shares its
// machine) the CPU's speed drifts by tens of percent over tens of seconds
// as other tenants' load comes and goes, and every kind of work drifts
// together: a random memory walk and JSON encoding, timed alternately for
// 90 s, each moved 28% between 10 s windows but their ratio only 6%. So a
// run times a fixed kernel, which shares no code with dprof, between its
// passes, and scales its end-to-end times by the kernel's reference time
// over its median time in the run. The times then read as seconds on the
// reference host at its usual speed, and a change to dprof moves them as
// it moves the raw times. The raw times and the scale are in the full
// report.

// kernelRefMs is about the kernel's median time on the reference host at
// its usual speed; it only sets the scale.
const kernelRefMs = 3.0

// kernelSteps is the walk length of each of the kernel's two goroutines.
const kernelSteps = 500_000

// hostSpeed collects the kernel's times over one run.
type hostSpeed struct {
	table   []uint64 // 4 MiB, two halves, one per goroutine
	samples []float64
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{table: make([]uint64, 1<<19)}
	h.kernel() // fault the table in
	return h
}

// probe times the kernel n times. The median over a run ignores the few
// samples that overlap a garbage collection or a scheduler hiccup.
func (h *hostSpeed) probe(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		h.kernel()
		h.samples = append(h.samples, ms(time.Since(t0)))
	}
}

// kernel is a xorshift-driven read-modify-write walk over the table, one
// goroutine per CPU, allocating nothing.
func (h *hostSpeed) kernel() {
	half := len(h.table) / 2
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(part []uint64, x uint64) {
			defer wg.Done()
			var acc uint64
			mask := uint64(len(part) - 1)
			for i := 0; i < kernelSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & mask
				acc += part[j]
				part[j] = acc ^ x
			}
		}(h.table[g*half:(g+1)*half], uint64(g)+88172645463325252)
	}
	wg.Wait()
}

// scale is what a time measured in this run is multiplied by to read as
// time on the reference host: above 1 when the host ran fast.
func (h *hostSpeed) scale() float64 {
	return kernelRefMs / median(h.samples)
}
