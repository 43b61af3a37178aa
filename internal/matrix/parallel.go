package matrix

import (
	"runtime"
	"sync"
)

// MulParallel computes C += A·B splitting rows of C across workers
// goroutines (0 selects GOMAXPROCS). Each worker runs its row band
// through MulRuns, so per-element summation order matches MulKIJ exactly
// and results are bit-identical to the serial kernel.
func MulParallel(c, a, b *Dense, workers int) {
	checkTriple(c, a, b)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := a.n
	workers = min(workers, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r0 := w * n / workers
		r1 := (w + 1) * n / workers
		if r0 == r1 {
			continue
		}
		wg.Add(1)
		go func(band []Run) {
			defer wg.Done()
			MulRuns(c, a, b, band, 0, n)
		}(rectRuns(r0, r1, 0, n))
	}
	wg.Wait()
}

// rectRuns returns the row runs of the rectangle rows [r0,r1) × columns
// [c0,c1).
func rectRuns(r0, r1, c0, c1 int) []Run {
	runs := make([]Run, 0, r1-r0)
	for i := r0; i < r1; i++ {
		runs = append(runs, Run{Row: i, J0: c0, J1: c1})
	}
	return runs
}

// Flops returns the number of floating-point operations (multiply-adds
// counted as 2) a full n×n MMM performs: 2n³.
func Flops(n int) int64 {
	nn := int64(n)
	return 2 * nn * nn * nn
}
