package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/streaming"
)

// trafficHash folds a run's traffic record — superstep count, every
// superstep's per-kind totals and the cumulative p×p link matrix — into one
// FNV-64a digest.
func trafficHash(s Stats) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(s.Supersteps))
	for _, t := range s.PerStep {
		put(t.GatherMessages)
		put(t.ApplyMessages)
		put(t.ActivateMessages)
		put(t.GatherBytes)
		put(t.ApplyBytes)
		put(t.ActivateBytes)
	}
	for _, row := range s.Links.Messages {
		for _, c := range row {
			put(c)
		}
	}
	for _, row := range s.Links.Bytes {
		for _, c := range row {
			put(c)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenTraffic pins the message traffic of every (graph, partitioner,
// program, p) case. The value oracle cannot see an extra or missing
// activation that moves traffic but not values; these digests can. Any
// change to them is a change in what the runtime sends, and must be
// deliberate.
var goldenTraffic = map[string]string{
	"g21/random/cc/p2":        "1b92820c9e3d5e74",
	"g21/random/cc/p70":       "993cfd22366913b2",
	"g21/random/cc/p8":        "ac5674d1e649b0de",
	"g21/random/degree/p2":    "d381989e6a72b4d5",
	"g21/random/degree/p70":   "c2cbfbbdad85d7d8",
	"g21/random/degree/p8":    "6c772e3e9d775b0b",
	"g21/random/pagerank/p2":  "3a56ed0178fef843",
	"g21/random/pagerank/p70": "6f1114c36a0e3325",
	"g21/random/pagerank/p8":  "a84d2ac74fbd29ea",
	"g21/random/sssp/p2":      "c2d9129b56ae7e73",
	"g21/random/sssp/p70":     "be4fc30ba8c17472",
	"g21/random/sssp/p8":      "08d57c9d329e71e5",
	"g21/tlp/cc/p2":           "dd9a60d1c08acbce",
	"g21/tlp/cc/p70":          "931a8ec9bb4171d1",
	"g21/tlp/cc/p8":           "e5a80c504fcf4150",
	"g21/tlp/degree/p2":       "b1284b1dc91cd0cf",
	"g21/tlp/degree/p70":      "42c48886ad7ac485",
	"g21/tlp/degree/p8":       "8e696d4523870dda",
	"g21/tlp/pagerank/p2":     "d5918085de97a88a",
	"g21/tlp/pagerank/p70":    "e14e616f957e48a9",
	"g21/tlp/pagerank/p8":     "2ecb5adaaaa4ce15",
	"g21/tlp/sssp/p2":         "108b167f2eb41a0e",
	"g21/tlp/sssp/p70":        "3130b30996e89bba",
	"g21/tlp/sssp/p8":         "d16af61f3902e9a1",
	"g4/random/cc/p2":         "b8e145e9422f0bf6",
	"g4/random/cc/p70":        "84c05a66455308db",
	"g4/random/cc/p8":         "5978518c1878cefd",
	"g4/random/degree/p2":     "ce24edae6cc93020",
	"g4/random/degree/p70":    "1852acbca049174f",
	"g4/random/degree/p8":     "e68e0ff271193ff2",
	"g4/random/pagerank/p2":   "1d3fb66005247b83",
	"g4/random/pagerank/p70":  "1933c3cd0241d186",
	"g4/random/pagerank/p8":   "52f2b23b07bbab59",
	"g4/random/sssp/p2":       "65425a7a92a69f00",
	"g4/random/sssp/p70":      "b4bf1b690f744288",
	"g4/random/sssp/p8":       "2eed4088269a9b8c",
	"g4/tlp/cc/p2":            "789e2c71aa3b46d7",
	"g4/tlp/cc/p70":           "cfb2a70f99e72867",
	"g4/tlp/cc/p8":            "85973db536ec6ced",
	"g4/tlp/degree/p2":        "05f6b09fb3848306",
	"g4/tlp/degree/p70":       "ac25d22fbc06c4e5",
	"g4/tlp/degree/p8":        "b7b111b0169e680a",
	"g4/tlp/pagerank/p2":      "d4edb961d5357d1a",
	"g4/tlp/pagerank/p70":     "699bda82bd1d824a",
	"g4/tlp/pagerank/p8":      "d9b91c866393732d",
	"g4/tlp/sssp/p2":          "ad9904373203deb0",
	"g4/tlp/sssp/p70":         "05266be1c26f4d7b",
	"g4/tlp/sssp/p8":          "626edab2e696e585",
}

// TestTrafficGolden runs PageRank, connected components, SSSP and
// DegreeCount on fixture graphs under TLP and random partitionings at
// p ∈ {2, 8, 70} and checks each run's traffic digest against the pinned
// value.
func TestTrafficGolden(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"g4", testGraph(4, 150, 450)},
		{"g21", testGraph(21, 300, 700)},
	}
	programs := []struct {
		name string
		make func(n int) Program
		max  int
	}{
		{"pagerank", func(n int) Program { return NewPageRank(n, 0.85, 1e-8) }, 40},
		{"cc", func(int) Program { return &Components{} }, 60},
		{"sssp", func(int) Program { return &SSSP{Source: 0} }, 60},
		{"degree", func(int) Program { return &DegreeCount{} }, 10},
	}
	for _, gr := range graphs {
		for _, part := range []string{"tlp", "random"} {
			for _, p := range []int{2, 8, 70} {
				var a *partition.Assignment
				if part == "tlp" {
					a = partitioned(t, gr.g, p)
				} else {
					var err error
					if a, err = streaming.NewRandom(3).Partition(gr.g, p); err != nil {
						t.Fatal(err)
					}
				}
				e, err := New(gr.g, a)
				if err != nil {
					t.Fatalf("%s/%s/p%d: %v", gr.name, part, p, err)
				}
				for _, pr := range programs {
					key := fmt.Sprintf("%s/%s/%s/p%d", gr.name, part, pr.name, p)
					_, stats, err := e.Run(pr.make(gr.g.NumVertices()), pr.max)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if got, want := trafficHash(stats), goldenTraffic[key]; got != want {
						t.Errorf("%q: %q, // traffic digest changed (pinned %q)", key, got, want)
					}
				}
			}
		}
	}
}
