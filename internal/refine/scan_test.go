package refine

import (
	"sort"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// TestScanSwapsMatchesSortedReference checks the bucket scan against the
// direct definition of a side's candidate list: every boundary edge of
// partition i scored by MoveDelta towards j, negative gains dropped, sorted
// (gain desc, edge id asc) and cut to maxSwapCandidates. The graphs are
// large enough that most lists hit the cut, and p=70 runs on the sparse
// State representation.
func TestScanSwapsMatchesSortedReference(t *testing.T) {
	for _, p := range []int{2, 3, 8, 70} {
		g := randomGraph(uint64(p), 1500, 6000)
		a := partition.MustNew(g.NumEdges(), p)
		r := rng.New(uint64(100 + p))
		for id := 0; id < g.NumEdges(); id++ {
			k := r.Intn(p)
			if r.Intn(2) == 0 {
				k = (id / 16) % p // runs of co-located edges make gain-1 and gain-2 candidates
			}
			a.Assign(graph.EdgeID(id), k)
		}
		st, err := partition.NewState(g, a)
		if err != nil {
			t.Fatal(err)
		}
		run := newRunner(g, st, g.NumEdges(), 1, 1)
		run.scanSwaps()
		full := 0
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i == j {
					continue
				}
				var want []swapCand
				for id := 0; id < g.NumEdges(); id++ {
					e := graph.EdgeID(id)
					if k, _ := a.PartitionOf(e); k != i || !st.IsBoundary(e) {
						continue
					}
					if gain := -st.MoveDelta(e, j); gain >= 0 {
						want = append(want, swapCand{e: e, gain: int32(gain)})
					}
				}
				sort.SliceStable(want, func(x, y int) bool { return want[x].gain > want[y].gain })
				if len(want) > maxSwapCandidates {
					want = want[:maxSwapCandidates]
					full++
				}
				got := run.ranked(i, j, nil)
				if len(got) != len(want) {
					t.Fatalf("p=%d side %d->%d: %d candidates, want %d", p, i, j, len(got), len(want))
				}
				for x := range want {
					if got[x] != want[x] {
						t.Fatalf("p=%d side %d->%d rank %d: got %+v, want %+v", p, i, j, x, got[x], want[x])
					}
				}
			}
		}
		if full == 0 {
			t.Fatalf("p=%d: no candidate list reached the cut of %d", p, maxSwapCandidates)
		}
	}
}
