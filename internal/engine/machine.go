package engine

import (
	"slices"

	"github.com/graphpart/graphpart/internal/graph"
)

// The five phases of one superstep. Every machine executes the same phase
// between two global barriers, and messages sent in one phase are drained
// in a later one, so no machine ever observes another machine mid-phase —
// the determinism guarantee of the runtime.
const (
	// phaseGather: every machine computes gather contributions for its
	// active local replicas; mirrors flush theirs to the master machine.
	phaseGather = iota
	// phaseApply: masters drain flushes, fold the canonical accumulator,
	// apply, and broadcast the new value to mirrors.
	phaseApply
	// phaseScatter: machines drain broadcasts, update mirror values, run
	// the local scatter, and send activation notices to masters of
	// vertices the master may believe converged.
	phaseScatter
	// phaseActivate: masters drain notices and fan activation out to
	// mirrors of vertices whose broadcast said "inactive".
	phaseActivate
	// phaseFinalize: machines drain fan-outs, make the woken replicas the
	// next frontier, and count their active masters for the termination
	// check.
	phaseFinalize
	numPhases
)

// machine is one share-nothing partition runtime. It owns purely local
// state — local replica values, local adjacency, local activation — and the
// only way any of it crosses the partition boundary is a Message through
// the Transport. The coordinator never reads mutable machine state while
// the machine's goroutine runs a phase; the phase command/done channels
// provide the happens-before edges.
//
// Every table is a flat array. Per-replica tables are indexed by local index
// i; master-side and mirror-side tables are indexed by the replica's rank
// among this machine's masters or mirrors (rank[i]), so a table exists only
// for the replicas that need it.
type machine struct {
	id   int
	tr   Transport
	prog Program

	// Immutable local topology, built once in New.

	// reps[i] is replica i: its vertex, global degree and current value.
	reps []replica
	// off, adjLocal and adjSlot are the local CSR over this partition's
	// edges: replica i's neighbours are adjLocal[off[i]:off[i+1]] (local
	// indices), sorted by global id, and adjSlot holds each arc's canonical
	// slot — its index in the vertex's globally sorted neighbour list.
	off      []int32
	adjLocal []int32
	adjSlot  []int32
	// masterMachine[i] is the machine holding replica i's master;
	// replica i is a master exactly when it equals id.
	masterMachine []int32
	// rank[i] indexes the master-side tables (mirrorOff, accOff) when
	// replica i is a master, the mirror-side tables (flush, notice) when it
	// is a mirror.
	rank []int32

	// Master-side tables, by master rank r. Mirrors of master r are entries
	// mirrorOff[r]..mirrorOff[r+1] of mirrorMachine/mirrorLidx/bcast/fan,
	// sorted by machine id. acc[accOff[r]:accOff[r]+degree] is the dense
	// slot-indexed accumulator, reused every superstep.
	mirrorOff     []int32
	mirrorMachine []int32
	mirrorLidx    []int32
	accOff        []int32
	acc           []float64

	// Reusable messages, allocated once in New and sent as pointers into
	// these arrays. flush[q] and notice[q] belong to mirror rank q: the
	// flush's Slots alias the replica's adjSlot range and its Contribs a
	// range of one flat array, refilled each superstep; the notice is
	// addressed to the master replica's local index. bcast[x] and fan[x]
	// belong to mirror entry x of a master. Activate carries nothing but
	// its immutable Local index, so resending the same message every
	// superstep is safe — the same reuse contract flush and bcast rely on:
	// the phase barrier guarantees a receiver consumed a message before its
	// sender refills it.
	flush  []GatherFlush
	notice []Activate
	bcast  []ApplyBroadcast
	fan    []Activate

	// Mutable per-run state, owned exclusively by this machine's goroutine
	// while a run is in flight.

	// frontier lists this superstep's active replicas. next collects the
	// replicas activated for the next superstep, with nextActive[i] as the
	// dedup flag; finalize swaps the two lists.
	frontier   []int32
	next       []int32
	nextActive []bool
	// changedList lists the replicas that did not converge this superstep
	// (they drive scatter), with changed[i] as the membership flag. For a
	// master, changed[i] is also the activation its broadcast announced, so
	// a master reactivated beyond it needs a fan-out.
	changedList []int32
	changed     []bool
	// activeMasters is the post-finalize count of active mastered vertices;
	// the coordinator reads it between supersteps to decide termination.
	activeMasters int
	// drained counts messages received this superstep; only maintained in
	// sanitizer builds (see invariants.go), read by the coordinator at the
	// superstep boundary.
	drained int64
}

// replica packs what a gather reads about a neighbour — value, vertex id
// and degree — into one 16-byte record, so each arc costs one random load.
type replica struct {
	value  float64
	vert   graph.Vertex
	degree int32
}

// isMaster reports whether this machine holds replica i's master.
func (m *machine) isMaster(i int32) bool { return int(m.masterMachine[i]) == m.id }

// route builds the machine's cross-machine tables and run buffers from the
// per-vertex replica lists: repMachine/repLidx[repOff[v]:repOff[v+1]] are
// v's replicas in machine order, masterOf[v]/masterLidx[v] its master.
func (m *machine) route(masterOf, masterLidx, repOff, repMachine, repLidx []int32) {
	nl := len(m.reps)
	m.masterMachine = make([]int32, nl)
	m.rank = make([]int32, nl)
	var masters, mirrors, mirrorEntries, accLen, contribLen int32
	for i := range m.reps {
		v := m.reps[i].vert
		m.masterMachine[i] = masterOf[v]
		if int(masterOf[v]) == m.id {
			m.rank[i] = masters
			masters++
			mirrorEntries += repOff[v+1] - repOff[v] - 1
			accLen += m.reps[i].degree
		} else {
			m.rank[i] = mirrors
			mirrors++
			contribLen += m.off[i+1] - m.off[i]
		}
	}
	m.mirrorOff = make([]int32, masters+1)
	m.mirrorMachine = make([]int32, mirrorEntries)
	m.mirrorLidx = make([]int32, mirrorEntries)
	m.bcast = make([]ApplyBroadcast, mirrorEntries)
	m.fan = make([]Activate, mirrorEntries)
	m.accOff = make([]int32, masters)
	m.acc = make([]float64, accLen)
	m.flush = make([]GatherFlush, mirrors)
	m.notice = make([]Activate, mirrors)
	contrib := make([]float64, contribLen)
	var entry, accAt, contribAt int32
	for i := range m.reps {
		v := m.reps[i].vert
		r := m.rank[i]
		if !m.isMaster(int32(i)) {
			lo, hi := m.off[i], m.off[i+1]
			m.flush[r] = GatherFlush{
				MasterLocal: masterLidx[v],
				Slots:       m.adjSlot[lo:hi:hi],
				Contribs:    contrib[contribAt : contribAt+hi-lo : contribAt+hi-lo],
			}
			m.notice[r] = Activate{Local: masterLidx[v]}
			contribAt += hi - lo
			continue
		}
		m.accOff[r] = accAt
		accAt += m.reps[i].degree
		for j := repOff[v]; j < repOff[v+1]; j++ {
			if int(repMachine[j]) == m.id {
				continue
			}
			m.mirrorMachine[entry], m.mirrorLidx[entry] = repMachine[j], repLidx[j]
			m.bcast[entry] = ApplyBroadcast{MirrorLocal: repLidx[j]}
			m.fan[entry] = Activate{Local: repLidx[j]}
			entry++
		}
		m.mirrorOff[r+1] = entry
	}
	m.frontier = make([]int32, 0, nl)
	m.next = make([]int32, 0, nl)
	m.changedList = make([]int32, 0, nl)
	m.nextActive = make([]bool, nl)
	m.changed = make([]bool, nl)
}

// loop runs phases as they are commanded until cmds closes. One goroutine
// per machine executes it for the duration of a run.
func (m *machine) loop(cmds <-chan int, done chan<- struct{}) {
	for ph := range cmds {
		m.step(ph)
		done <- struct{}{}
	}
}

func (m *machine) step(ph int) {
	switch ph {
	case phaseGather:
		m.gather()
	case phaseApply:
		m.apply()
	case phaseScatter:
		m.scatter()
	case phaseActivate:
		m.activate()
	case phaseFinalize:
		m.finalize()
	}
}

// reset prepares the machine for a fresh run of prog over tr.
func (m *machine) reset(prog Program, tr Transport) {
	m.prog, m.tr = prog, tr
	m.activeMasters = 0
	// Every replica has at least one local edge, so every replicated vertex
	// starts active — the same initial frontier as the sequential reference
	// (degree > 0).
	m.frontier = m.frontier[:0]
	for i := range m.reps {
		r := &m.reps[i]
		r.value = prog.Init(r.vert, int(r.degree))
		m.frontier = append(m.frontier, int32(i))
		m.nextActive[i] = false
		m.changed[i] = false
		if m.isMaster(int32(i)) {
			m.activeMasters++
		}
	}
	m.next = m.next[:0]
	m.changedList = m.changedList[:0]
}

// wake marks replica i active for the next superstep, listing it once; it
// reports whether i was newly woken.
func (m *machine) wake(i int32) bool {
	if m.nextActive[i] {
		return false
	}
	m.nextActive[i] = true
	m.next = append(m.next, i)
	return true
}

// markChanged lists replica i as not converged this superstep.
func (m *machine) markChanged(i int32) {
	m.changed[i] = true
	m.changedList = append(m.changedList, i)
}

// masterAcc is master replica i's slot-indexed accumulator.
func (m *machine) masterAcc(i int32) []float64 {
	lo := m.accOff[m.rank[i]]
	return m.acc[lo : lo+m.reps[i].degree]
}

// gather computes this machine's per-arc contributions for every replica on
// the frontier. Masters write straight into their dense accumulator;
// mirrors fill their reusable flush and send it to the master machine.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) gather() {
	for _, i := range m.frontier {
		v := m.reps[i].vert
		lo, hi := m.off[i], m.off[i+1]
		locals := m.adjLocal[lo:hi]
		if m.isMaster(i) {
			acc, slots := m.masterAcc(i), m.adjSlot[lo:hi]
			for j, l := range locals {
				u := &m.reps[l]
				acc[slots[j]] = m.prog.Gather(v, u.vert, u.value, int(u.degree))
			}
		} else {
			f := &m.flush[m.rank[i]]
			contribs := f.Contribs[:len(locals)]
			for j, l := range locals {
				u := &m.reps[l]
				contribs[j] = m.prog.Gather(v, u.vert, u.value, int(u.degree))
			}
			m.tr.Send(m.id, int(m.masterMachine[i]), f)
		}
	}
}

// apply drains mirror flushes into the accumulators, folds each frontier
// master's accumulator in canonical slot order (bit-identical to a
// sequential fold over the sorted neighbour list), applies, and broadcasts
// the outcome to every mirror.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) apply() {
	for _, msg := range m.drainInbox() {
		f := msg.(*GatherFlush)
		acc := m.masterAcc(f.MasterLocal)
		for j, s := range f.Slots {
			acc[s] = f.Contribs[j]
		}
	}
	for _, i := range m.frontier {
		if !m.isMaster(i) {
			continue
		}
		rep := &m.reps[i]
		acc := m.masterAcc(i)
		sum := acc[0]
		for _, c := range acc[1:] {
			sum = m.prog.Sum(sum, c)
		}
		old := rep.value
		nv := m.prog.Apply(rep.vert, old, sum, int(rep.degree))
		conv := m.prog.Converged(old, nv)
		rep.value = nv
		if !conv {
			m.markChanged(i)
			m.wake(i)
		}
		r := m.rank[i]
		for x := m.mirrorOff[r]; x < m.mirrorOff[r+1]; x++ {
			b := &m.bcast[x]
			b.Value, b.Changed, b.Active = nv, !conv, !conv
			m.tr.Send(m.id, int(m.mirrorMachine[x]), b)
		}
	}
}

// scatter drains broadcasts (updating mirror values, changed flags and
// master-decided activation), then wakes the local neighbours of every
// changed replica. A wake of a vertex whose master may believe it inactive
// is escalated with an Activate notice to the master machine; the
// nextActive flag doubles as the per-machine dedup.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) scatter() {
	for _, msg := range m.drainInbox() {
		b := msg.(*ApplyBroadcast)
		i := b.MirrorLocal
		m.reps[i].value = b.Value
		if b.Changed {
			m.markChanged(i)
		}
		if b.Active {
			m.wake(i)
		}
	}
	for _, i := range m.changedList {
		for _, w := range m.adjLocal[m.off[i]:m.off[i+1]] {
			if !m.wake(w) || m.isMaster(w) {
				continue
			}
			m.tr.Send(m.id, int(m.masterMachine[w]), &m.notice[m.rank[w]])
		}
	}
}

// activate drains notices at masters and fans activation out to the
// mirrors of every master that ended up active beyond what its broadcast
// said — so all replicas agree on the activation set before finalize.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) activate() {
	for _, msg := range m.drainInbox() {
		m.wake(msg.(*Activate).Local)
	}
	for _, i := range m.next {
		if !m.isMaster(i) || m.changed[i] {
			continue
		}
		r := m.rank[i]
		for x := m.mirrorOff[r]; x < m.mirrorOff[r+1]; x++ {
			m.tr.Send(m.id, int(m.mirrorMachine[x]), &m.fan[x])
		}
	}
}

// finalize drains activation fan-outs, makes the woken replicas the next
// frontier, clears the per-superstep flags and counts the active masters
// the coordinator uses for the termination check.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) finalize() {
	for _, msg := range m.drainInbox() {
		m.wake(msg.(*Activate).Local)
	}
	for _, i := range m.changedList {
		m.changed[i] = false
	}
	m.changedList = m.changedList[:0]
	// The next frontier goes out in ascending local order, so the phases
	// walk the CSR and the per-replica tables forwards. A dense frontier is
	// rebuilt by one scan of the flags, a sparse one is sorted.
	if next := m.next; len(next)*sparseFrontier < len(m.reps) {
		slices.Sort(next)
	} else {
		next = next[:0]
		for i, on := range m.nextActive {
			if on {
				next = append(next, int32(i))
			}
		}
		m.next = next
	}
	m.frontier, m.next = m.next, m.frontier[:0]
	m.activeMasters = 0
	for _, i := range m.frontier {
		m.nextActive[i] = false
		if m.isMaster(i) {
			m.activeMasters++
		}
	}
}

// sparseFrontier is the density below which finalize sorts the next
// frontier (k log k) instead of scanning all nextActive flags: a frontier
// under 1/16 of the replicas.
const sparseFrontier = 16
