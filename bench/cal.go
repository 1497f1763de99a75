package main

import (
	"sort"
	"sync"
	"time"
)

// Host-speed calibration. The benchmark host is a shared VM whose speed
// drifts by up to ~2x, over intervals from under a second to minutes,
// while reporting no CPU steal. A probe goroutine therefore times a small
// fixed kernel of benchmark code (independent of the engine packages)
// every probeEvery while the workload runs, and the iteration's times
// are scaled by calRef/cal, cal being the median probe pass: end-to-end
// times are seconds at the reference speed. A probe sampling the same
// interval as the workload tracks the drift far better than a
// calibration run before it; the workload's own load moves the median
// pass by a few percent at most (measured across the five workloads).
const (
	// calRef sets the reference speed: the probe pass's median time on
	// the 2-CPU VM the benchmark was built on, in a quiet phase. It is
	// estimated from a 20x larger kernel's quiet-phase pass (0.033 s)
	// and the measured ratio of the two kernels' pass times.
	calRef     = 0.00165 // s
	probeEvery = 50 * time.Millisecond
)

// calState is the preallocated working set of the kernel, so the timed
// passes allocate nothing and never wait on the GC.
type calState struct {
	buf  []uint64
	m    map[uint64]uint64
	ring []int32
	sink uint64
}

func newCalState() *calState {
	c := &calState{buf: make([]uint64, 1<<18), m: make(map[uint64]uint64, 1<<15), ring: make([]int32, 1<<16)}
	for i := uint64(0); i < 1<<15; i++ {
		c.m[i*2654435761] = i
	}
	// One random cycle through the ring: a dependent pointer chase.
	perm := make([]int32, len(c.ring))
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint32(2463534242)
	for i := len(perm) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := int(x % uint32(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		c.ring[perm[i]] = perm[(i+1)%len(perm)]
	}
	return c
}

// pass runs the kernel once (about 2 ms): integer work with random
// stores into 2 MB, map lookups and a dependent pointer chase.
func (c *calState) pass() {
	x := uint64(88172645463325252)
	for i := 0; i < 50_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[x&(1<<18-1)] += x
	}
	var s uint64
	for i := uint64(0); i < 20_000; i++ {
		s += c.m[(i&(1<<15-1))*2654435761]
	}
	p := int32(0)
	for i := 0; i < 12_500; i++ {
		p = c.ring[p]
	}
	c.sink = s + uint64(p) + c.buf[7]
}

// speedProbe times one kernel pass every probeEvery until stopped.
type speedProbe struct {
	stopc chan struct{}
	done  sync.WaitGroup
	ds    []float64
}

func startProbe() *speedProbe {
	p := &speedProbe{stopc: make(chan struct{})}
	c := newCalState()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			start := time.Now()
			c.pass()
			p.ds = append(p.ds, time.Since(start).Seconds())
			select {
			case <-p.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// stop ends the probe and returns its median pass time (s).
func (p *speedProbe) stop() float64 {
	close(p.stopc)
	p.done.Wait()
	sort.Float64s(p.ds)
	return p.ds[len(p.ds)/2]
}
