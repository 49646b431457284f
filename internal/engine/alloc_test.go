package engine

import (
	"runtime/debug"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// TestHotPathAllocs_Superstep is the cross-check named by the
// //graphpart:hotpath annotations on the five machine phases: after the
// transport queues grow to their high-water mark, a full superstep —
// gather, apply, scatter, activate, finalize across every machine —
// allocates nothing. The phases run synchronously here (the coordinator's
// loop without goroutines); the phase schedule is identical, only the
// barrier handshake is gone, so what AllocsPerRun sees is exactly the
// per-superstep machine and transport work.
func TestHotPathAllocs_Superstep(t *testing.T) {
	r := rng.New(7)
	b := graph.NewBuilder(32)
	for i := 1; i < 32; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	for i := 0; i < 48; i++ {
		_ = b.AddEdge(graph.Vertex(r.Intn(32)), graph.Vertex(r.Intn(32)))
	}
	g := b.Build()
	const p = 3
	a := partition.MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), id%p)
	}
	en, err := New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemTransport(p)
	// Tolerance 0 keeps vertices active while values still change, so the
	// steady state being measured carries real message traffic.
	prog := NewPageRank(g.NumVertices(), 0.85, 0)
	for _, m := range en.machines {
		m.reset(prog, tr)
	}
	superstep := func() {
		for ph := 0; ph < numPhases; ph++ {
			for _, m := range en.machines {
				m.step(ph)
			}
			tr.Flip()
		}
	}
	for i := 0; i < 4; i++ {
		superstep() // grow queues and drain buffers to their high-water mark
	}
	if allocs := testing.AllocsPerRun(100, superstep); allocs != 0 {
		t.Fatalf("superstep allocates %.1f times per step", allocs)
	}
}

// TestBuildAllocs_FlatLayout pins New's flat layout: at a fixed p, building
// an engine allocates the same number of objects on two graphs whose sizes
// differ 10×. Every per-machine table is one exactly sized array, so the
// count grows with p, never with the number of vertices, edges or replicas.
func TestBuildAllocs_FlatLayout(t *testing.T) {
	if invariants.Enabled {
		t.Skip("invariants builds run partition.Validate's per-edge load check, which allocates")
	}
	const p = 6
	build := func(n, extra int) func() {
		g := testGraph(31, n, extra)
		a := partition.MustNew(g.NumEdges(), p)
		for id := 0; id < g.NumEdges(); id++ {
			a.Assign(graph.EdgeID(id), id%p)
		}
		return func() {
			if _, err := New(g, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The collector is off while counting: a GC cycle can make a runtime
	// allocation of its own, and the larger graph triggers more cycles.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small := testing.AllocsPerRun(20, build(400, 1000))
	large := testing.AllocsPerRun(20, build(4000, 10000))
	if small != large {
		t.Fatalf("New allocates %.0f objects on %d vertices but %.0f on %d: allocations must not grow with the graph",
			small, 400, large, 4000)
	}
	if small > 40*p {
		t.Fatalf("New allocates %.0f objects at p=%d; want O(p)", small, p)
	}
}
