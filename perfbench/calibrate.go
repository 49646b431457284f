package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"

	graphpart "github.com/graphpart/graphpart"
)

// The benchmark's host is shared, and its speed drifts by a quarter or more
// over minutes as other tenants load its memory system and its cores. The
// drift is the same for every step timed in a stretch of minutes, so a
// fixed kernel that does not use the library, timed right before and right
// after each step, measures it. The kernel has two halves of about equal
// time, because the steps feel the two loads differently: a memory-bound
// sweep, whose working set is kept well above the cache, and a
// register-only integer loop. On a 2-vCPU VM the sweep tracked W2's
// NewEngine+Run (correlation 0.8) and the loop tracked W2's Refine (0.83)
// and W3's CC job; their sum tracked every step at least as well as the
// worse of the two halves alone. The kernel calls nothing of the library,
// not even internal/parallel, so a change to the library cannot move it.
//
// Every reported timing is rescaled to a reference host speed: a step that
// took d with kernel times c1 before and c2 after is reported as
// d × calibRef / ((c1+c2)/2). A change to the library moves d and not the
// kernel; a host slowdown moves both.
const (
	calibVertices = 1 << 20
	calibDegree   = 4
	calibSweeps   = 4
	calibRounds   = 30_000_000 // xorshift rounds per goroutine
	// calibRef is the kernel time that defines the reference host speed,
	// the kernel's median on the 2-vCPU VM of the README's baseline, so
	// rescaled times read like that VM's wall seconds.
	calibRef = 140 * time.Millisecond
)

// calibration is calibSweeps PageRank-style sweeps over a fixed random
// graph with calibVertices vertices of out-degree calibDegree, then
// calibRounds of xorshift, each split over GOMAXPROCS goroutines. Its arrays are mapped outside the Go heap, so that they
// change neither the collector's pacing nor the heap the workload sees;
// calibBytes of them are resident for the whole run.
type calibration struct {
	adj        []int32
	rank, next []float64
	maps       [][]byte
	workers    int
	// hashes keeps the xorshift results, so that the loop is not elided.
	hashes []uint64
}

const calibBytes = calibVertices*calibDegree*4 + 2*calibVertices*8

func newCalibration(workers int) (*calibration, error) {
	c := &calibration{workers: workers, hashes: make([]uint64, workers)}
	adj, err := c.mmap(calibVertices * calibDegree * 4)
	if err != nil {
		c.close()
		return nil, err
	}
	rank, err := c.mmap(calibVertices * 8)
	if err != nil {
		c.close()
		return nil, err
	}
	next, err := c.mmap(calibVertices * 8)
	if err != nil {
		c.close()
		return nil, err
	}
	c.adj = unsafe.Slice((*int32)(unsafe.Pointer(&adj[0])), calibVertices*calibDegree)
	c.rank = unsafe.Slice((*float64)(unsafe.Pointer(&rank[0])), calibVertices)
	c.next = unsafe.Slice((*float64)(unsafe.Pointer(&next[0])), calibVertices)
	x := uint64(88172645463325252) // xorshift64; the graph is the same in every run
	for i := range c.adj {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.adj[i] = int32(x % calibVertices)
	}
	clear(c.next)
	return c, nil
}

func (c *calibration) mmap(size int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration: mmap %d bytes: %w", size, err)
	}
	c.maps = append(c.maps, b)
	return b, nil
}

func (c *calibration) close() {
	for _, b := range c.maps {
		syscall.Munmap(b)
	}
	c.maps, c.adj, c.rank, c.next = nil, nil, nil, nil
}

// time runs the kernel once and returns its wall time.
func (c *calibration) time() time.Duration {
	for v := range c.rank {
		c.rank[v] = 1
	}
	w := graphpart.StartWatch()
	for range calibSweeps {
		c.fanOut(func(k int) {
			c.sweep(k*calibVertices/c.workers, (k+1)*calibVertices/c.workers)
		})
		c.rank, c.next = c.next, c.rank
	}
	c.fanOut(func(k int) {
		x := uint64(k + 1)
		for range calibRounds {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		c.hashes[k] = x
	})
	return w.Elapsed()
}

// fanOut runs fn(k) for k in [0, workers), one goroutine each, and waits.
func (c *calibration) fanOut(fn func(k int)) {
	var wg sync.WaitGroup
	for k := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
	wg.Wait()
}

// sweep computes next from rank for the vertices in [lo, hi).
func (c *calibration) sweep(lo, hi int) {
	for v := lo; v < hi; v++ {
		s := 0.0
		for _, u := range c.adj[v*calibDegree : (v+1)*calibDegree] {
			s += c.rank[u]
		}
		c.next[v] = 0.15 + 0.85*s/calibDegree
	}
}

// hostSpeed is the rescaling factor of a step bracketed by kernel times
// before and after.
func hostSpeed(before, after time.Duration) float64 {
	return 2 * float64(calibRef) / float64(before+after)
}

// rescaled is d at the reference host speed.
func rescaled(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}
