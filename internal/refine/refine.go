// Package refine improves a finished edge partitioning in place with the
// move/swap local search of ROADMAP item 4 ("Enhancing Balanced Graph Edge
// Partition with Effective Local Search", Guo et al.): per-vertex
// replica-reduction moves vacate one of a spanned vertex's partition slices
// into another partition the vertex already occupies, and boundary-edge
// swaps exchange edges between partition pairs when the combined replica
// reduction is positive, which improves RF without touching any load. Both
// neighbourhoods run on the incremental partition.State, where applying a
// move is O(1) amortized.
//
// Each phase of a pass scores candidates against the phase-start state
// (reads only), then applies them in one sequential fold — moves in
// ascending vertex order, swaps in ascending (i, j) partition-pair order —
// re-evaluating every candidate's exact gain against the live state at
// application time. Stale candidates are skipped, never mis-applied.
//
// Scoring reads the state once per gain term, not once per candidate
// target. The move phase walks each spanned vertex's incident edges once,
// filling per-partition loads, leave counts and shared-partition counts from
// which every (from, to) gain is one subtraction; vertices are scored in
// parallel chunks with per-chunk scratch. The swap phase is one sequential
// ascending scan over the boundary edges: an edge's leave term is computed
// once, its gain towards every other partition (2, 1 or 0 after the missing
// endpoints) is read off the endpoints' replica bitsets, and the edge is
// filed into capped (side, target, gain) buckets whose concatenation is the
// gain-sorted candidate list. The result is bit-identical for any worker
// count.
package refine

import (
	"fmt"
	mathbits "math/bits"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/parallel"
	"github.com/graphpart/graphpart/internal/partition"
)

// maxSwapCandidates bounds the per-side candidate list of one partition
// pair in one pass; the lists are gain-sorted, so the bound drops only the
// least promising swaps, and later passes see them again.
const maxSwapCandidates = 64

// Options tunes the local search.
type Options struct {
	// Capacity is the per-partition bound C; zero means ceil(m/p). Moves
	// never push a partition above C (already-overfull inputs can only
	// lose edges); swaps leave all loads unchanged.
	Capacity int
	// MaxPasses bounds full move+swap passes (default 8).
	MaxPasses int
	// MinGain is the smallest net replica reduction worth executing
	// (default 1).
	MinGain int
	// MaxSeconds is a wall-clock budget checked between passes; zero means
	// no budget. A truncated run is still a valid refinement, but which
	// pass it stops after depends on the machine — leave it zero where
	// bit-identical output matters (the deterministic-oracle tests do).
	MaxSeconds float64
	// Workers caps the scoring parallelism; zero resolves the worker pool
	// default (GRAPHPART_WORKERS, then GOMAXPROCS).
	Workers int
}

// Stats reports what a Run call did.
type Stats struct {
	// Passes actually executed.
	Passes int
	// Moves is the number of vertex (partition -> partition) vacate
	// migrations applied.
	Moves int
	// EdgesMoved counts the edges those migrations reassigned.
	EdgesMoved int
	// Swaps is the number of boundary-edge pair exchanges applied.
	Swaps int
	// ReplicasRemoved is the net replica reduction achieved.
	ReplicasRemoved int
	// RFBefore and RFAfter are the replication factor at entry and exit.
	RFBefore, RFAfter float64
	// BalanceBefore and BalanceAfter are max-load/(m/p) at entry and exit.
	BalanceBefore, BalanceAfter float64
	// Converged reports that the last pass found nothing left to apply
	// (as opposed to stopping on MaxPasses or the time budget).
	Converged bool
}

// Run improves the assignment in place until convergence, MaxPasses or the
// time budget, and reports statistics. The assignment must be complete;
// capacity is not validated on entry (refinement accepts over-capacity
// inputs and only ever improves them).
func Run(g *graph.Graph, a *partition.Assignment, opts Options) (Stats, error) {
	var stats Stats
	if g == nil {
		return stats, fmt.Errorf("refine: nil graph")
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{SkipCapacity: true}); err != nil {
		return stats, fmt.Errorf("refine: %w", err)
	}
	capC := opts.Capacity
	if capC <= 0 {
		capC = partition.Capacity(g.NumEdges(), a.P())
	}
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 8
	}
	minGain := opts.MinGain
	if minGain <= 0 {
		minGain = 1
	}
	workers := parallel.Workers(opts.Workers)
	st, err := partition.NewState(g, a)
	if err != nil {
		return stats, fmt.Errorf("refine: %w", err)
	}
	stats.RFBefore = st.RF()
	stats.BalanceBefore = st.Balance()
	sp := obs.Start("refine.run",
		obs.Int("p", a.P()), obs.Int("edges", g.NumEdges()),
		obs.Int("capacity", capC), obs.Int("workers", workers),
		obs.Int("boundary", st.NumBoundary()))
	budget := obs.StartWatch()
	r := newRunner(g, st, capC, minGain, workers)
	for pass := 0; pass < maxPasses; pass++ {
		if opts.MaxSeconds > 0 && budget.Seconds() > opts.MaxSeconds {
			break
		}
		psp := sp.Child("refine.pass", obs.Int("pass", pass))
		w := obs.StartWatch()
		moves, edgesMoved, moveGain := r.movePhase()
		psp.Segment("refine.moves", w.Elapsed(),
			obs.Int("moves", moves), obs.Int("edges_moved", edgesMoved),
			obs.Int("replicas_removed", moveGain))
		w = obs.StartWatch()
		swaps, swapGain := r.swapPhase()
		psp.Segment("refine.swaps", w.Elapsed(),
			obs.Int("swaps", swaps), obs.Int("replicas_removed", swapGain))
		psp.EndWith(obs.Int("replicas_removed", moveGain+swapGain))
		stats.Passes++
		stats.Moves += moves
		stats.EdgesMoved += edgesMoved
		stats.Swaps += swaps
		stats.ReplicasRemoved += moveGain + swapGain
		if invariants.Enabled {
			st.AssertConsistent()
		}
		if moves+swaps == 0 {
			stats.Converged = true
			break
		}
	}
	stats.RFAfter = st.RF()
	stats.BalanceAfter = st.Balance()
	sp.EndWith(obs.Int("passes", stats.Passes), obs.Int("moves", stats.Moves),
		obs.Int("swaps", stats.Swaps),
		obs.Int("replicas_removed", stats.ReplicasRemoved),
		obs.Float("rf_after", stats.RFAfter))
	return stats, nil
}

// runner carries one Run invocation's shared search context and the scoring
// scratch every pass reuses.
type runner struct {
	g       *graph.Graph
	st      *partition.State
	p       int
	words   int // replica-set bitset length, st.MaskWords()
	capC    int
	minGain int
	workers int

	// Move phase: the pass's spanned vertices, their scored candidates, one
	// scratch per scoring chunk, and the application fold's edge buffer.
	spanned []graph.Vertex
	cands   []vacate
	vac     []*vacScratch
	edges   []graph.EdgeID

	// Swap phase. buckets[(i*p+j)*3+g] lists, in ascending edge id, the
	// side-i boundary edges whose move to j gains exactly g;
	// open[(i*3+g)*words+j/64] has bit j%64 set while that bucket can still
	// reach the first maxSwapCandidates of (i, j)'s gain-sorted list. mu, mv
	// hold the scanned edge's endpoint replica sets; ci, cj the ranked lists
	// of the pair being applied.
	buckets [][]graph.EdgeID
	open    []uint64
	mu, mv  []uint64
	ci, cj  []swapCand
}

func newRunner(g *graph.Graph, st *partition.State, capC, minGain, workers int) *runner {
	p, words := st.P(), st.MaskWords()
	return &runner{
		g: g, st: st, p: p, words: words,
		capC: capC, minGain: minGain, workers: workers,
		buckets: make([][]graph.EdgeID, p*p*3),
		open:    make([]uint64, p*3*words),
		mu:      make([]uint64, words),
		mv:      make([]uint64, words),
		ci:      make([]swapCand, 0, maxSwapCandidates),
		cj:      make([]swapCand, 0, maxSwapCandidates),
	}
}

// vacate is one scored per-vertex move candidate: shift all of v's edges in
// partition `from` to partition `to` for a predicted replica reduction of
// `gain`. from < 0 marks "no candidate".
type vacate struct {
	from, to int32
	gain     int32
}

// vacScratch is one move-phase chunk's scoring scratch, indexed by
// partition id. scoreVacate resets only the cells of the scored vertex's
// own partitions, so a call costs O(deg + replicas²), never O(p²).
type vacScratch struct {
	parts []int
	load  []int32 // load[k]: v's edges in k
	leave []int32 // leave[k]: v's k-edges whose far endpoint has no other edge in k
	hit   []int32 // hit[from*p+to]: v's from-edges whose far endpoint is also in to
	mv    []uint64
	mu    []uint64
}

func (r *runner) newVacScratch() *vacScratch {
	return &vacScratch{
		parts: make([]int, 0, r.p),
		load:  make([]int32, r.p),
		leave: make([]int32, r.p),
		hit:   make([]int32, r.p*r.p),
		mv:    make([]uint64, r.words),
		mu:    make([]uint64, r.words),
	}
}

// movePhase scores the best vacate move of every spanned vertex in parallel
// chunks against the phase-start state, then applies them in ascending
// vertex order with exact re-evaluation, so earlier applications invalidate
// later candidates safely (the re-check skips them). Returns applied moves,
// edges reassigned and replicas removed.
func (r *runner) movePhase() (moves, edgesMoved, gainTotal int) {
	st := r.st
	r.spanned = r.spanned[:0]
	for v := 0; v < r.g.NumVertices(); v++ {
		if st.Replicas(graph.Vertex(v)) >= 2 {
			r.spanned = append(r.spanned, graph.Vertex(v))
		}
	}
	spanned := r.spanned
	if len(spanned) == 0 {
		return 0, 0, 0
	}
	if cap(r.cands) < len(spanned) {
		r.cands = make([]vacate, len(spanned))
	}
	cands := r.cands[:len(spanned)]
	chunks := parallel.Chunks(len(spanned), r.workers)
	for len(r.vac) < len(chunks) {
		r.vac = append(r.vac, r.newVacScratch())
	}
	parallel.ForEach(len(chunks), r.workers, func(c int) {
		sc := r.vac[c]
		for i := chunks[c][0]; i < chunks[c][1]; i++ {
			cands[i] = r.scoreVacate(spanned[i], sc)
		}
	})
	for i, v := range spanned {
		cand := cands[i]
		if cand.from < 0 {
			continue
		}
		gain, edges := r.vacateGain(v, int(cand.from), int(cand.to), r.edges[:0])
		r.edges = edges
		if gain < r.minGain || len(edges) == 0 {
			continue
		}
		if st.Assignment().Load(int(cand.to))+len(edges) > r.capC {
			continue
		}
		delta := 0
		for _, e := range edges {
			delta += st.Move(e, int(cand.to))
		}
		if invariants.Enabled {
			invariants.Assertf(delta == -gain,
				"vacate of vertex %d: predicted gain %d, realized %d", v, gain, -delta)
		}
		moves++
		edgesMoved += len(edges)
		gainTotal += gain
	}
	return moves, edgesMoved, gainTotal
}

// scoreVacate finds v's best (from, to, gain) vacate candidate against the
// current state: highest gain, ties to the smallest from then to. One walk
// over v's incident edges reads each far endpoint u once — its count in the
// edge's partition k and its replica bitset — and fills sc. Then
// gain(from, to) = 1 + leave[from] - miss(from, to): v always leaves
// `from`, `to` is already one of v's partitions, and each from-edge whose
// far endpoint is absent from `to` adds a replica there. The walk counts
// the present endpoints (mask(v) & mask(u)) rather than the absent ones, so
// miss(from, to) = load[from] - hit[from][to] costs O(replicas(u)) per edge,
// not O(replicas(v)): a hub's neighbours sit in few partitions.
//
//graphpart:hotpath test=TestHotPathAllocs_RefineScoring
func (r *runner) scoreVacate(v graph.Vertex, sc *vacScratch) vacate {
	st, p := r.st, r.p
	sc.parts = st.Partitions(v, sc.parts[:0])
	for _, k := range sc.parts {
		sc.load[k], sc.leave[k] = 0, 0
		row := sc.hit[k*p : (k+1)*p]
		for _, t := range sc.parts {
			row[t] = 0
		}
	}
	st.Mask(v, sc.mv)
	nbrs := r.g.Neighbors(v)
	for i, eid := range r.g.IncidentEdges(v) {
		k, _ := st.Assignment().PartitionOf(eid)
		u := nbrs[i]
		sc.load[k]++
		if st.Count(u, k) == 1 {
			sc.leave[k]++
		}
		st.Mask(u, sc.mu)
		row := sc.hit[k*p : (k+1)*p]
		for w, vb := range sc.mv {
			for b := vb & sc.mu[w]; b != 0; b &= b - 1 {
				row[w<<6+mathbits.TrailingZeros64(b)]++
			}
		}
	}
	best := vacate{from: -1}
	for _, from := range sc.parts {
		load := int(sc.load[from])
		for _, to := range sc.parts {
			if to == from {
				continue
			}
			if st.Assignment().Load(to)+load > r.capC {
				continue
			}
			gain := 1 + int(sc.leave[from]) - (load - int(sc.hit[from*p+to]))
			if gain >= r.minGain && (best.from < 0 || int32(gain) > best.gain) {
				best = vacate{from: int32(from), to: int32(to), gain: int32(gain)}
			}
		}
	}
	return best
}

// vacateGain exactly evaluates moving all of v's edges in `from` to `to`
// against the live state, returning the replica reduction and the edge list.
// Unlike scoreVacate it does not assume v currently occupies `to`.
//
//graphpart:hotpath test=TestHotPathAllocs_RefineScoring
func (r *runner) vacateGain(v graph.Vertex, from, to int, edges []graph.EdgeID) (int, []graph.EdgeID) {
	st := r.st
	gain := 1 // v leaves `from` (every edge there is moved)
	if st.Count(v, to) == 0 {
		gain--
	}
	nbrs := r.g.Neighbors(v)
	for i, eid := range r.g.IncidentEdges(v) {
		if k, _ := st.Assignment().PartitionOf(eid); k != from {
			continue
		}
		edges = append(edges, eid)
		u := nbrs[i]
		if st.Count(u, from) == 1 {
			gain++
		}
		if st.Count(u, to) == 0 {
			gain--
		}
	}
	if len(edges) == 0 {
		return 0, edges
	}
	return gain, edges
}

// swapCand is one scored boundary edge on one side of a partition pair.
type swapCand struct {
	e    graph.EdgeID
	gain int32
}

// swapPhase proposes boundary-edge exchanges for every partition pair —
// each side's candidates gain-ranked (gain desc, edge id asc) by scanSwaps
// against the phase-start state and rank-paired — then applies them in
// ascending pair order with exact re-evaluation: the first move of a pair is
// applied, the second evaluated against that intermediate state, and the
// pair reverted when the combined realized gain falls short. Swaps never
// change a load, so capacity is preserved by construction.
func (r *runner) swapPhase() (swaps, gainTotal int) {
	st := r.st
	if st.NumBoundary() == 0 {
		return 0, 0
	}
	r.scanSwaps()
	for i := 0; i < r.p; i++ {
		for j := i + 1; j < r.p; j++ {
			r.ci = r.ranked(i, j, r.ci[:0])
			r.cj = r.ranked(j, i, r.cj[:0])
			for t := 0; t < len(r.ci) && t < len(r.cj); t++ {
				c1, c2 := r.ci[t], r.cj[t]
				if int(c1.gain+c2.gain) < r.minGain {
					break // both lists are gain-sorted, so no later rank can reach MinGain
				}
				k1, _ := st.Assignment().PartitionOf(c1.e)
				k2, _ := st.Assignment().PartitionOf(c2.e)
				if k1 != i || k2 != j {
					continue // a previous application already moved one side
				}
				g1 := -st.Move(c1.e, j)
				g2 := -st.MoveDelta(c2.e, i)
				if g1+g2 < r.minGain {
					st.Move(c1.e, i) // revert; exactly restores the pre-swap state
					continue
				}
				g2 = -st.Move(c2.e, i)
				swaps++
				gainTotal += g1 + g2
			}
		}
	}
	return swaps, gainTotal
}

// scanSwaps scores every boundary edge against the phase-start state in one
// ascending edge-id scan and files it into the swap buckets. An edge e in
// partition i gains leave - missing by moving to j, where leave counts the
// endpoints whose only i-edge is e and missing those absent from j. Only
// non-negative gains are kept (a zero-gain edge can still pair with a
// positive partner), so every gain is 2, 1 or 0, and edges arrive in
// ascending id: the gain-2, gain-1 and gain-0 buckets of (i, j)
// concatenated are the (gain desc, id asc) order, and a bucket closes as
// soon as it can no longer reach that order's first maxSwapCandidates.
//
//graphpart:hotpath test=TestHotPathAllocs_RefineScoring
func (r *runner) scanSwaps() {
	st, p, words := r.st, r.p, r.words
	for b := range r.buckets {
		r.buckets[b] = r.buckets[b][:0]
	}
	for i := 0; i < p; i++ {
		for g := 0; g < 3; g++ {
			open := r.open[(i*3+g)*words : (i*3+g+1)*words]
			for w := range open {
				open[w] = ^uint64(0)
			}
			if rem := p & 63; rem != 0 {
				open[words-1] = uint64(1)<<uint(rem) - 1
			}
			open[i>>6] &^= uint64(1) << uint(i&63)
		}
	}
	for id := 0; id < r.g.NumEdges(); id++ {
		e := graph.EdgeID(id)
		if !st.IsBoundary(e) {
			continue
		}
		i, _ := st.Assignment().PartitionOf(e)
		ed := r.g.Edge(e)
		leave := 0
		if st.Count(ed.U, i) == 1 {
			leave++
		}
		if st.Count(ed.V, i) == 1 {
			leave++
		}
		st.Mask(ed.U, r.mu)
		st.Mask(ed.V, r.mv)
		for w := 0; w < words; w++ {
			mu, mv := r.mu[w], r.mv[w]
			r.fileTargets(e, i, w, leave, mu&mv) // both endpoints present
			if leave >= 1 {
				r.fileTargets(e, i, w, leave-1, mu^mv) // one missing
			}
			if leave == 2 {
				r.fileTargets(e, i, w, 0, ^(mu | mv)) // both missing
			}
		}
	}
}

// fileTargets appends e to bucket (i, j, g) for every target j of bitset
// word w in targets whose bucket is still open, closing each bucket of gain
// h <= g once the buckets of gain >= h hold maxSwapCandidates edges: any
// later gain-h edge ranks behind all of them.
func (r *runner) fileTargets(e graph.EdgeID, i, w, g int, targets uint64) {
	for b := targets & r.open[(i*3+g)*r.words+w]; b != 0; b &= b - 1 {
		j := w<<6 + mathbits.TrailingZeros64(b)
		base := (i*r.p + j) * 3
		r.buckets[base+g] = append(r.buckets[base+g], e)
		n := 0
		for h := 2; h >= 0; h-- {
			n += len(r.buckets[base+h])
			if h <= g && n >= maxSwapCandidates {
				r.open[(i*3+h)*r.words+w] &^= uint64(1) << uint(j&63)
			}
		}
	}
}

// ranked appends side i's candidates for a move to j to dst in (gain desc,
// edge id asc) order, at most maxSwapCandidates of them.
func (r *runner) ranked(i, j int, dst []swapCand) []swapCand {
	base := (i*r.p + j) * 3
	for g := 2; g >= 0; g-- {
		for _, e := range r.buckets[base+g] {
			if len(dst) == maxSwapCandidates {
				return dst
			}
			dst = append(dst, swapCand{e: e, gain: int32(g)})
		}
	}
	return dst
}
