package refine

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// TestHotPathAllocs_RefineScoring is the cross-check named by the
// //graphpart:hotpath annotations on scoreVacate, vacateGain and scanSwaps.
// The vacate pair works entirely in caller scratch, and the swap scan
// refills buckets that keep their capacity from one pass to the next, so
// once warmed neither allocates at all.
func TestHotPathAllocs_RefineScoring(t *testing.T) {
	g := randomGraph(5, 200, 400)
	const p = 8
	a := partition.MustNew(g.NumEdges(), p)
	r := rng.New(11)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), r.Intn(p))
	}
	st, err := partition.NewState(g, a)
	if err != nil {
		t.Fatal(err)
	}
	run := newRunner(g, st, g.NumEdges(), 1, 1)

	var v graph.Vertex
	found := false
	for i := 0; i < g.NumVertices(); i++ {
		if st.Replicas(graph.Vertex(i)) >= 2 {
			v, found = graph.Vertex(i), true
			break
		}
	}
	if !found {
		t.Fatal("random assignment produced no spanned vertex")
	}
	sc := run.newVacScratch()
	edges := make([]graph.EdgeID, 0, g.NumEdges())
	pp := st.Partitions(v, nil)
	from, to := pp[0], pp[1]
	if allocs := testing.AllocsPerRun(300, func() {
		_ = run.scoreVacate(v, sc)
		_, edges = run.vacateGain(v, from, to, edges[:0])
	}); allocs != 0 {
		t.Fatalf("vacate scoring allocates %.1f times per call pair", allocs)
	}

	if st.NumBoundary() < 20 {
		t.Fatalf("boundary too small to measure: %d edges", st.NumBoundary())
	}
	run.scanSwaps() // first pass grows the buckets to their high-water mark
	if allocs := testing.AllocsPerRun(50, run.scanSwaps); allocs != 0 {
		t.Fatalf("swap scan allocates %.1f times per pass", allocs)
	}
}
