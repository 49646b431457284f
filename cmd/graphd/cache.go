package main

import (
	"fmt"
	"sort"
	"sync"

	graphpart "github.com/graphpart/graphpart"
	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/refine"
)

// cacheKey identifies one partitioning the daemon has materialised; refined
// and unrefined variants of a family are distinct entries.
type cacheKey struct {
	family string
	p      int
	refine bool
}

// cacheEntry holds everything derived from one (family, p) partitioning:
// the assignment, its quality metrics, and a reusable engine. The once
// gate means concurrent first requests compute the partitioning exactly
// once. The engine is built by the first in-process /run, not by the
// fill, so /partition lookups and cluster runs never pay for one; engMu
// guards that build and serialises engine runs (an Engine must not run
// concurrently) while leaving different entries free to run in parallel.
type cacheEntry struct {
	once sync.Once
	err  error

	a       *partition.Assignment
	metrics partition.Metrics
	refined refine.Stats // zero unless the entry was refined

	engMu sync.Mutex
	eng   *engine.Engine // nil until the first in-process /run
}

// run executes prog on the entry's engine over tr, building the engine
// first if no in-process run has needed it yet.
func (e *cacheEntry) run(g *graph.Graph, prog engine.Program, maxSupersteps int, tr engine.Transport) ([]float64, engine.Stats, error) {
	e.engMu.Lock()
	defer e.engMu.Unlock()
	if e.eng == nil {
		eng, err := engine.New(g, e.a)
		if err != nil {
			return nil, engine.Stats{}, fmt.Errorf("build engine: %w", err)
		}
		e.eng = eng
	}
	return e.eng.RunWith(prog, maxSupersteps, tr)
}

// partitionCache lazily materialises and retains partitionings per
// (family, p). Entries are never evicted: the reachable key space (families
// x sane p values) is small and each entry is a partitioning the daemon
// exists to serve.
type partitionCache struct {
	g    *graph.Graph
	seed uint64

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
}

func newPartitionCache(g *graph.Graph, seed uint64) *partitionCache {
	return &partitionCache{g: g, seed: seed, entries: make(map[cacheKey]*cacheEntry)}
}

// maxP bounds requested partition counts: beyond this the daemon refuses
// rather than materialise degenerate partitionings.
const maxP = 256

// families returns the registered partitioner family names, sorted.
func (c *partitionCache) families() []string {
	parts := graphpart.AllPartitioners(c.seed)
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name) //lint:ignore GL001 sorted on the next line
	}
	sort.Strings(names)
	return names
}

// get returns the materialised entry for (family, p, refineAfter), computing
// it on first use. Concurrent callers for one key share a single computation.
func (c *partitionCache) get(family string, p int, refineAfter bool) (*cacheEntry, error) {
	if p < 2 || p > maxP {
		return nil, fmt.Errorf("p=%d out of range [2,%d]", p, maxP)
	}
	// Validate before inserting, so unknown families never grow the map. A
	// fresh partitioner instance per call: registry partitioners are seeded
	// and stateful, so sharing one across fills could race.
	pr, ok := graphpart.AllPartitioners(c.seed)[family]
	if !ok {
		return nil, fmt.Errorf("unknown partitioner family %q", family)
	}
	key := cacheKey{family: family, p: p, refine: refineAfter}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		a, err := pr.Partition(c.g, p)
		if err != nil {
			e.err = fmt.Errorf("partition %s/p=%d: %w", family, p, err)
			return
		}
		if refineAfter {
			rs, err := refine.Run(c.g, a, refine.Options{})
			if err != nil {
				e.err = fmt.Errorf("refine %s/p=%d: %w", family, p, err)
				return
			}
			e.refined = rs
		}
		m, err := partition.Compute(c.g, a)
		if err != nil {
			e.err = fmt.Errorf("metrics %s/p=%d: %w", family, p, err)
			return
		}
		e.a, e.metrics = a, m
	})
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// size reports how many partitionings are currently materialised.
func (c *partitionCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
