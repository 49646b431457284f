// PageRank on the GAS engine: demonstrates the paper's motivation — a lower
// replication factor means less master/mirror synchronisation traffic for
// the same computation. The same PageRank runs over TLP, METIS, DBH and
// random partitionings of the same graph; the ranks are bit-identical, the
// messages and bytes on the wire are not.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	graphpart "github.com/graphpart/graphpart"
)

func main() {
	dataset, err := graphpart.DatasetByNotation("G2")
	if err != nil {
		log.Fatal(err)
	}
	g := dataset.Generate(7)
	fmt.Println("graph:", graphpart.ComputeGraphStats(g))
	const p = 10
	const supersteps = 20

	type contender struct {
		name string
		pt   graphpart.Partitioner
	}
	var ranks [][]float64
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "partitioner\tRF\tsupersteps\tgather msgs\tapply msgs\ttotal msgs\twire bytes\tbytes/step")
	for _, c := range []contender{
		{"TLP", graphpart.NewTLP(graphpart.TLPOptions{Seed: 7})},
		{"METIS", graphpart.NewMETIS(graphpart.METISConfig{Seed: 7})},
		{"DBH", graphpart.NewDBH(7)},
		{"Random", graphpart.NewRandom(7)},
	} {
		a, err := c.pt.Partition(g, p)
		if err != nil {
			log.Fatal(err)
		}
		rf, err := graphpart.ReplicationFactor(g, a)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := graphpart.NewEngine(g, a)
		if err != nil {
			log.Fatal(err)
		}
		values, stats, err := eng.Run(graphpart.NewPageRank(g.NumVertices(), 0.85, 0), supersteps)
		if err != nil {
			log.Fatal(err)
		}
		ranks = append(ranks, values)
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%d\t%d\t%d\t%d\t%d\n", c.name, rf, stats.Supersteps,
			stats.GatherMessages, stats.ApplyMessages, stats.Messages(), stats.Bytes(),
			stats.Bytes()/int64(max(stats.Supersteps, 1)))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	// The partitioning must not change the computed ranks: the runtime folds
	// gather contributions in canonical slot order, so different
	// partitionings produce bit-identical values, not merely close ones.
	for i := 1; i < len(ranks); i++ {
		for v := range ranks[0] {
			if ranks[i][v] != ranks[0][v] {
				log.Fatalf("contender %d: rank of vertex %d is %v, first contender has %v",
					i, v, ranks[i][v], ranks[0][v])
			}
		}
	}
	fmt.Println("\nranks are bit-identical across all partitionings. Sync messages scale")
	fmt.Println("with (replicas - masters): the replication factor is the communication")
	fmt.Println("bill of the partitioning. Wire bytes also count the per-edge")
	fmt.Println("contributions each gather flush carries.")
}
