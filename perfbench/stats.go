package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (xs need
// not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rssSampler records the highest resident set size seen while it runs, so
// peak memory covers the measured phase only — not set-up, and not the
// correctness check that follows.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int64 // bytes; written by the sampling goroutine until wg is done
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			s.peak = max(s.peak, rssBytes())
			select {
			case <-s.stop:
				s.peak = max(s.peak, rssBytes())
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stopMB ends sampling and returns the peak in megabytes.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	s.wg.Wait()
	return float64(s.peak) / 1e6
}

// rssBytes reads the current resident set size from /proc/self/statm.
func rssBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
