// Package engine is a PowerGraph-style gather-apply-scatter (GAS) runtime
// running on an edge-partitioned graph — the distributed-computation
// substrate that motivates the paper's problem: every spanned vertex has one
// master replica and mirrors in every other partition whose edge set touches
// it, and each superstep synchronises gather results from mirrors to the
// master and the applied value back from the master to the mirrors.
//
// The runtime is share-nothing: each partition is a machine (one goroutine)
// owning purely local state — local replica values, local adjacency, local
// activation — and the only way state crosses a partition boundary is a
// typed Message through a Transport. The transport accounts messages and
// wire bytes per link, making the cost of a high replication factor
// directly observable: with every vertex active, a superstep moves exactly
// 2 * (total replicas - masters) messages.
//
// Supersteps run in five globally barriered phases (gather, apply, scatter,
// activate, finalize), and masters fold gather contributions in canonical
// slot order, so a run is deterministic and bit-identical to RunSequential
// for any partitioning and any scheduling of the machine goroutines.
package engine

import (
	"fmt"
	"math"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// Program is a vertex program in the gather-sum-apply-scatter model.
// Values are float64; programs needing richer state encode it.
type Program interface {
	// Name identifies the program.
	Name() string
	// Init returns vertex v's value before the first superstep.
	Init(v graph.Vertex, degree int) float64
	// Gather produces the contribution of edge (v, u) to v's
	// accumulator, given u's current value and degree.
	Gather(v, u graph.Vertex, uValue float64, uDegree int) float64
	// Sum combines two gather contributions (must be commutative and
	// associative).
	Sum(a, b float64) float64
	// Apply computes v's new value from the gathered total.
	Apply(v graph.Vertex, old, gathered float64, degree int) float64
	// Converged reports whether the change from old to new is small
	// enough to deactivate the vertex this round.
	Converged(old, new float64) bool
}

// Stats aggregates what the runtime did during a run.
type Stats struct {
	// Supersteps executed (may be fewer than requested on convergence).
	Supersteps int
	// GatherMessages counts mirror->master accumulator flushes.
	GatherMessages int64
	// ApplyMessages counts master->mirror value broadcasts.
	ApplyMessages int64
	// ActivateMessages counts activation notices and fan-outs.
	ActivateMessages int64
	// GatherBytes, ApplyBytes and ActivateBytes are the wire bytes of the
	// corresponding message kinds.
	GatherBytes   int64
	ApplyBytes    int64
	ActivateBytes int64
	// TotalReplicas is the number of (vertex, partition) placements.
	TotalReplicas int
	// Masters is the number of vertices with at least one edge.
	Masters int
	// PerStep is the traffic of each executed superstep.
	PerStep []Totals
	// Links is the cumulative per-link p x p traffic matrix.
	Links *TrafficMatrix
}

// Messages returns total synchronisation traffic across message kinds.
func (s Stats) Messages() int64 {
	return s.GatherMessages + s.ApplyMessages + s.ActivateMessages
}

// Bytes returns total wire bytes across message kinds.
func (s Stats) Bytes() int64 { return s.GatherBytes + s.ApplyBytes + s.ActivateBytes }

// ReplicationFactor returns TotalReplicas over Masters — the engine-visible
// RF (isolated vertices excluded, unlike the paper's Definition 4 which
// divides by |V|), or 0 for a graph without edges.
func (s Stats) ReplicationFactor() float64 {
	if s.Masters == 0 {
		return 0
	}
	return float64(s.TotalReplicas) / float64(s.Masters)
}

// Engine executes vertex programs over one partitioned graph. Build it once
// per assignment; Run may be called repeatedly but not concurrently —
// machines reuse their per-run buffers across runs.
type Engine struct {
	g *graph.Graph
	p int
	// machines[k] is partition k's share-nothing runtime.
	machines []*machine
	stats    Stats
}

// New builds an engine from a complete edge partitioning of g. Capacity
// validation is skipped — the runtime executes whatever a partitioner
// produced, balanced or not — but the assignment must cover every edge.
//
// The build is flat: a counting sort buckets edge ids by partition, each
// machine interns its vertices through one shared scratch index, and every
// per-machine table is a handful of exactly sized arrays, so New allocates
// O(p) objects however large the graph is.
func New(g *graph.Graph, a *partition.Assignment) (*Engine, error) {
	if err := partition.Validate(g, a, partition.ValidateOptions{SkipCapacity: true}); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if 2*int64(g.NumEdges()) > math.MaxInt32 {
		return nil, fmt.Errorf("engine: %d edges overflow 32-bit arc offsets", g.NumEdges())
	}
	p := a.P()
	n := g.NumVertices()
	edges := g.Edges()
	e := &Engine{g: g, p: p, machines: make([]*machine, p)}

	arcSlot := canonicalArcSlots(g)
	byPart, start := bucketByPartition(a)

	// Local topology, one machine at a time. lidx is the shared interning
	// scratch (-1 = not on this machine), cleared after each machine;
	// cursor first counts each replica's local arcs (at i+1), then serves
	// as the CSR fill position.
	lidx := make([]int32, n)
	for v := range lidx {
		lidx[v] = -1
	}
	vbuf := make([]graph.Vertex, 0, n)
	cursor := make([]int32, n+1)
	totalReplicas := 0
	for k := range e.machines {
		ids := byPart[start[k]:start[k+1]]
		vbuf = vbuf[:0]
		cursor[0] = 0
		for _, id := range ids {
			for _, v := range [2]graph.Vertex{edges[id].U, edges[id].V} {
				if lidx[v] < 0 {
					lidx[v] = int32(len(vbuf))
					vbuf = append(vbuf, v)
					cursor[lidx[v]+1] = 0
				}
				cursor[lidx[v]+1]++
			}
		}
		nl := len(vbuf)
		m := &machine{id: k, reps: make([]replica, nl), off: make([]int32, nl+1)}
		for i, v := range vbuf {
			m.reps[i] = replica{vert: v, degree: int32(g.Degree(v))}
			cursor[i+1] += cursor[i]
			m.off[i+1] = cursor[i+1]
		}
		// Edge ids ascend within the bucket and edges are sorted by (U, V),
		// so each vertex meets its neighbours in ascending id order: every
		// local adjacency comes out sorted by canonical slot without a sort.
		m.adjLocal = make([]int32, 2*len(ids))
		m.adjSlot = make([]int32, 2*len(ids))
		for _, id := range ids {
			iu, iv := lidx[edges[id].U], lidx[edges[id].V]
			c := cursor[iu]
			m.adjLocal[c], m.adjSlot[c] = iv, arcSlot[2*id]
			cursor[iu]++
			c = cursor[iv]
			m.adjLocal[c], m.adjSlot[c] = iu, arcSlot[2*id+1]
			cursor[iv]++
		}
		assertSlotsAscending(m)
		for _, v := range vbuf {
			lidx[v] = -1
		}
		e.machines[k] = m
		totalReplicas += nl
	}

	// Master election from local incidence: the partition with the most
	// incident edges wins, ties to the lowest machine id. The same pass
	// counts each vertex's replicas.
	masterOf := make([]int32, n)
	bestInc := make([]int32, n)
	repOff := make([]int32, n+1)
	for v := range masterOf {
		masterOf[v] = -1
	}
	for k, m := range e.machines {
		for i := range m.reps {
			v := m.reps[i].vert
			if c := m.off[i+1] - m.off[i]; c > bestInc[v] {
				bestInc[v], masterOf[v] = c, int32(k)
			}
			repOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		repOff[v+1] += repOff[v]
		if masterOf[v] >= 0 {
			e.stats.Masters++
		}
	}
	// Per-vertex replica lists in machine order, and each master's local
	// index: the cross-machine routing every machine derives its tables from.
	repMachine := make([]int32, totalReplicas)
	repLidx := make([]int32, totalReplicas)
	masterLidx := make([]int32, n)
	next := append([]int32(nil), repOff[:n]...)
	for k, m := range e.machines {
		for i := range m.reps {
			v := m.reps[i].vert
			repMachine[next[v]], repLidx[next[v]] = int32(k), int32(i)
			next[v]++
			if masterOf[v] == int32(k) {
				masterLidx[v] = int32(i)
			}
		}
	}
	for _, m := range e.machines {
		m.route(masterOf, masterLidx, repOff, repMachine, repLidx)
	}
	e.stats.TotalReplicas = totalReplicas
	return e, nil
}

// canonicalArcSlots returns, for every edge id, the canonical slots of its
// two arcs: [2*id] at its U endpoint and [2*id+1] at its V endpoint, each
// the neighbour's index in the endpoint's sorted adjacency. Edges are stored
// with U < V, so an endpoint is U exactly when its neighbour is larger.
func canonicalArcSlots(g *graph.Graph) []int32 {
	slots := make([]int32, 2*g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		ids := g.IncidentEdges(graph.Vertex(v))
		for j, u := range g.Neighbors(graph.Vertex(v)) {
			side := int32(0)
			if u < graph.Vertex(v) {
				side = 1
			}
			slots[2*ids[j]+side] = int32(j)
		}
	}
	return slots
}

// bucketByPartition counting-sorts the edge ids of a by partition:
// byPart[start[k]:start[k+1]] are partition k's edges in ascending id order.
func bucketByPartition(a *partition.Assignment) (byPart []graph.EdgeID, start []int) {
	p := a.P()
	start = make([]int, p+1)
	for k := 0; k < p; k++ {
		start[k+1] = start[k] + a.Load(k)
	}
	byPart = make([]graph.EdgeID, a.NumEdges())
	fill := append([]int(nil), start[:p]...)
	for id := range byPart {
		k, _ := a.PartitionOf(graph.EdgeID(id))
		byPart[fill[k]] = graph.EdgeID(id)
		fill[k]++
	}
	return byPart, start
}

// ReplicationFactor returns the engine-visible RF of the partitioning the
// engine was built on (see Stats.ReplicationFactor).
func (e *Engine) ReplicationFactor() float64 { return e.stats.ReplicationFactor() }

// Run executes prog for at most maxSupersteps over an in-process transport,
// returning the final vertex values and execution stats. Vertices all start
// active; a vertex deactivates when Converged, and reactivates if any
// neighbour changed in the previous superstep. Run stops early when every
// vertex is inactive. Run must not be called concurrently on one Engine.
func (e *Engine) Run(prog Program, maxSupersteps int) ([]float64, Stats, error) {
	return e.RunWith(prog, maxSupersteps, nil)
}

// RunWith is Run over a caller-supplied Transport (nil means a fresh
// MemTransport), whose cumulative traffic lands in the returned Stats.
func (e *Engine) RunWith(prog Program, maxSupersteps int, tr Transport) ([]float64, Stats, error) {
	if prog == nil {
		return nil, Stats{}, fmt.Errorf("engine: nil program")
	}
	if maxSupersteps < 1 {
		return nil, Stats{}, fmt.Errorf("engine: need at least one superstep")
	}
	if tr == nil {
		tr = NewMemTransport(e.p)
	}
	stats := e.stats
	activeMasters := 0
	for _, m := range e.machines {
		m.reset(prog, tr)
		activeMasters += m.activeMasters
	}
	// One long-lived goroutine per machine; the coordinator drives them
	// phase by phase over control channels. The command/done handshake is
	// the barrier — and the happens-before edge that makes the transport's
	// lock-free buffers safe.
	cmds := make([]chan int, e.p)
	done := make(chan struct{}, e.p)
	for k, m := range e.machines {
		cmds[k] = make(chan int)
		go m.loop(cmds[k], done)
	}
	defer func() {
		for _, c := range cmds {
			close(c)
		}
	}()
	rsp := obs.Start("engine.run", obs.String("program", prog.Name()),
		obs.Int("p", e.p), obs.Int("replicas", e.stats.TotalReplicas))
	var prev Totals
	for step := 0; step < maxSupersteps && activeMasters > 0; step++ {
		stats.Supersteps++
		ssp := rsp.Child("engine.superstep", obs.Int("step", step))
		for ph := 0; ph < numPhases; ph++ {
			psp := ssp.Child(phaseSpanNames[ph])
			for _, c := range cmds {
				c <- ph
			}
			for range e.machines {
				<-done
			}
			tr.Flip()
			psp.End()
		}
		activeMasters = 0
		for _, m := range e.machines {
			activeMasters += m.activeMasters
		}
		tot := tr.Totals()
		delta := tot.Sub(prev)
		stats.PerStep = append(stats.PerStep, delta)
		assertStepBalanced(e.machines, step, delta)
		assertFrontierAgreement(e.machines, step)
		prev = tot
		ssp.EndWith(obs.Int64("gather_messages", delta.GatherMessages),
			obs.Int64("apply_messages", delta.ApplyMessages),
			obs.Int64("activate_messages", delta.ActivateMessages),
			obs.Int64("bytes", delta.Bytes()),
			obs.Int("active_masters", activeMasters))
	}
	stats.GatherMessages = prev.GatherMessages
	stats.ApplyMessages = prev.ApplyMessages
	stats.ActivateMessages = prev.ActivateMessages
	stats.GatherBytes = prev.GatherBytes
	stats.ApplyBytes = prev.ApplyBytes
	stats.ActivateBytes = prev.ActivateBytes
	stats.Links = tr.Traffic()
	assertTrafficConsistent(stats)
	recordRunMetrics(&stats)
	rsp.EndWith(obs.Int("supersteps", stats.Supersteps),
		obs.Int64("messages", stats.Messages()),
		obs.Int64("bytes", stats.Bytes()))
	// Assemble the result from master replicas; isolated vertices keep
	// their initial value.
	n := e.g.NumVertices()
	values := make([]float64, n)
	for v := 0; v < n; v++ {
		values[v] = prog.Init(graph.Vertex(v), e.g.Degree(graph.Vertex(v)))
	}
	for _, m := range e.machines {
		for i := range m.reps {
			if m.isMaster(int32(i)) {
				values[m.reps[i].vert] = m.reps[i].value
			}
		}
	}
	return values, stats, nil
}

// RunSequential executes prog on g as one plain sequential loop — no
// partitions, no goroutines, no messages. It is the oracle the
// share-nothing runtime is tested against: for any complete partitioning
// and any machine scheduling, Run returns bit-identical values and the same
// superstep count, because masters fold gather contributions in the same
// canonical sorted-neighbour order this loop uses.
func RunSequential(g *graph.Graph, prog Program, maxSupersteps int) ([]float64, int, error) {
	if prog == nil {
		return nil, 0, fmt.Errorf("engine: nil program")
	}
	if maxSupersteps < 1 {
		return nil, 0, fmt.Errorf("engine: need at least one superstep")
	}
	n := g.NumVertices()
	values := make([]float64, n)
	degree := make([]int, n)
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		degree[v] = g.Degree(graph.Vertex(v))
		values[v] = prog.Init(graph.Vertex(v), degree[v])
		active[v] = degree[v] > 0
	}
	gathered := make([]float64, n)
	changed := make([]bool, n)
	steps := 0
	for step := 0; step < maxSupersteps; step++ {
		anyActive := false
		for v := 0; v < n; v++ {
			if active[v] {
				anyActive = true
				break
			}
		}
		if !anyActive {
			break
		}
		steps++
		// Gather over the previous superstep's values for every active
		// vertex, folding the sorted neighbour list left to right.
		for v := 0; v < n; v++ {
			if !active[v] {
				continue
			}
			nbrs := g.Neighbors(graph.Vertex(v))
			sum := prog.Gather(graph.Vertex(v), nbrs[0], values[nbrs[0]], degree[nbrs[0]])
			for _, u := range nbrs[1:] {
				sum = prog.Sum(sum, prog.Gather(graph.Vertex(v), u, values[u], degree[u]))
			}
			gathered[v] = sum
		}
		// Apply.
		for v := 0; v < n; v++ {
			changed[v] = false
			if !active[v] {
				continue
			}
			nv := prog.Apply(graph.Vertex(v), values[v], gathered[v], degree[v])
			conv := prog.Converged(values[v], nv)
			values[v] = nv
			active[v] = !conv
			changed[v] = !conv
		}
		// Scatter: neighbours of changed vertices reactivate.
		for v := 0; v < n; v++ {
			if !changed[v] {
				continue
			}
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				active[u] = true
			}
		}
	}
	return values, steps, nil
}
