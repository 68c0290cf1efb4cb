package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's timings are given in reference seconds. Other tenants
// of a shared host slow its CPUs by up to half for seconds to minutes at
// a time, in CPU time as much as in wall time, so raw timings of runs
// minutes apart differ by more than a change worth catching. A gauge
// therefore times a fixed reference kernel now and then during a run,
// and every timed interval is scaled by refNominal over the kernel's
// time around it: work that took refNominal on a quiet machine counts as
// refNominal, however busy the host was. The kernel never calls the code
// under test, so a change there moves the reference seconds as much as
// it moves the wall time.

// refNominal is the kernel's wall time on a quiet 2-vCPU Xeon, the
// machine the benchmark was sized on.
const refNominal = 25 * time.Millisecond

// gaugeEvery is how long a run goes on between gauge samples, at least.
const gaugeEvery = 500 * time.Millisecond

const (
	refTableWords = 1 << 19 // 2 MiB of uint32 per worker, the size of an L2 cache
	refIterations = 3_000_000
)

// refKernel runs the reference kernel on workers goroutines and returns
// its wall time: each goroutine does refIterations dependent
// random read-modify-writes with a data-dependent branch over a table
// of its own. The tables are mapped outside the Go heap and unmapped
// before it returns, so the kernel neither allocates nor leaves memory
// resident to show up in the timed ops' allocation or peak.
func refKernel(workers int) (time.Duration, error) {
	const size = refTableWords * 4
	mem, err := syscall.Mmap(-1, 0, workers*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, fmt.Errorf("bench: mapping the reference kernel's tables: %w", err)
	}
	defer syscall.Munmap(mem)
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 1 // fault every page in before the clock starts
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		table := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[w*size])), refTableWords)
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x, acc := seed, uint32(0)
			for i := 0; i < refIterations; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				j := (x >> 20) & (refTableWords - 1)
				v := table[j] + uint32(x>>40)
				if v&3 == 0 {
					acc ^= v
				} else {
					acc += v >> 3
				}
				table[j] = v
			}
			table[0] += acc
		}(uint64(w) + 1)
	}
	wg.Wait()
	return time.Since(start), nil
}

// gauge is the reference kernel's times over one run. Sample k and
// sample k+1 bracket interval k; whatever is timed in it is scaled by
// the mean of the two.
type gauge struct {
	workers int
	times   []float64 // kernel wall times, s
	last    time.Time // when the latest sample ended
}

func newGauge(workers int) *gauge { return &gauge{workers: workers} }

// sample times the kernel once.
func (g *gauge) sample() error {
	d, err := refKernel(g.workers)
	if err != nil {
		return err
	}
	g.times = append(g.times, d.Seconds())
	g.last = time.Now()
	return nil
}

// mark samples the kernel when gaugeEvery has passed since the latest
// sample, and returns the interval that what is timed next falls in.
func (g *gauge) mark() (int, error) {
	if time.Since(g.last) >= gaugeEvery {
		if err := g.sample(); err != nil {
			return 0, err
		}
	}
	return len(g.times) - 1, nil
}

// scale turns the wall-clock values xs, each timed in interval at[i],
// into reference values. The run must have sampled once more after the
// last interval it used.
func (g *gauge) scale(xs []float64, at []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		k := at[i]
		out[i] = x * refNominal.Seconds() / ((g.times[k] + g.times[k+1]) / 2)
	}
	return out
}
