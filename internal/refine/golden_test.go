package refine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/streaming"
)

// goldenHash folds an assignment's per-edge partition ids (little-endian
// int32) through FNV-1a 64 — the same recipe as the core golden oracle.
func goldenHash(a *partition.Assignment) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	for e := 0; e < a.NumEdges(); e++ {
		k, ok := a.PartitionOf(graph.EdgeID(e))
		if !ok {
			k = -1
		}
		buf[0] = byte(k)
		buf[1] = byte(k >> 8)
		buf[2] = byte(k >> 16)
		buf[3] = byte(k >> 24)
		h.Write(buf)
	}
	return h.Sum64()
}

// refineGoldenCase pins the refined assignment of one (dataset, family, p)
// input to the hash the initial implementation produced.
type refineGoldenCase struct {
	dataset string
	family  string
	p       int
	want    uint64
}

// refineGoldenCases were captured from the initial move/swap refiner (graph
// seed 42, partitioner seed 42 throughout, default refine options). They are
// the oracle: future changes to the refiner that alter any hash are visible
// behaviour changes and must be flagged as such, not absorbed silently. The
// two p=100 cases run on partition.State's sparse (p > 64) replica-set
// representation; they were captured from the per-pair scorer that preceded
// the once-per-pass scan.
var refineGoldenCases = []refineGoldenCase{
	{"G1s", "random", 4, 0x662ccfa592b77815},
	{"G1s", "random", 8, 0x0edfa8016e96b990},
	{"G2s", "random", 4, 0x023ed5c46e91cb55},
	{"G3s", "hdrf", 4, 0xabb28be330d80ed7},
	{"G2s", "hdrf", 8, 0xd807120a83c677a7},
	{"G1s", "tlp", 4, 0x13f923b09652d427},
	{"G3s", "tlp", 8, 0x17d80448860d2a97},
	{"G1s", "random", 100, 0xecfca12d963223c8},
	{"G1s", "tlp", 100, 0xb75b0686d7041a1a},
}

// refineGoldenGraph resolves a dataset notation to its deterministic graph.
func refineGoldenGraph(t *testing.T, notation string) *graph.Graph {
	t.Helper()
	for _, d := range append(gen.Datasets(), gen.SmallDatasets()...) {
		if d.Notation == notation {
			return d.Generate(42)
		}
	}
	t.Fatalf("unknown dataset %q", notation)
	return nil
}

// refineGoldenInput partitions the case's graph with the case's family.
func refineGoldenInput(t *testing.T, g *graph.Graph, c refineGoldenCase) *partition.Assignment {
	t.Helper()
	var pt partition.Partitioner
	switch c.family {
	case "tlp":
		pt = core.MustNew(core.Options{Seed: 42})
	case "random":
		pt = streaming.NewRandom(42)
	case "hdrf":
		pt = streaming.NewHDRF(42, streaming.OrderShuffled, 0)
	default:
		t.Fatalf("unknown family %q", c.family)
	}
	a, err := pt.Partition(g, c.p)
	if err != nil {
		t.Fatalf("%s/%s/p=%d: %v", c.dataset, c.family, c.p, err)
	}
	return a
}

// TestRefineGoldenOracle pins the refined output of every case at worker
// counts 1, 2, 4 and 8: the hash must equal the captured oracle at every
// count, proving both that the refiner's behaviour is frozen and that the
// parallel scoring fan-out is invisible in its output.
func TestRefineGoldenOracle(t *testing.T) {
	for _, c := range refineGoldenCases {
		c := c
		t.Run(fmt.Sprintf("%s/%s/p%d", c.dataset, c.family, c.p), func(t *testing.T) {
			g := refineGoldenGraph(t, c.dataset)
			base := refineGoldenInput(t, g, c)
			capC := int(1.2 * float64(partition.Capacity(g.NumEdges(), c.p)))
			for _, workers := range []int{1, 2, 4, 8} {
				a := base.Clone()
				if _, err := Run(g, a, Options{Capacity: capC, Workers: workers}); err != nil {
					t.Fatal(err)
				}
				if got := goldenHash(a); got != c.want {
					t.Errorf("workers=%d: refined hash %#016x, want oracle %#016x", workers, got, c.want)
				}
			}
		})
	}
}
