package engine

import "github.com/graphpart/graphpart/internal/invariants"

// drainInbox is the machines' single drain point; in sanitizer builds it
// counts received messages so the coordinator can balance the books against
// the transport's send counters.
func (m *machine) drainInbox() []Message {
	msgs := m.tr.Drain(m.id)
	if invariants.Enabled {
		m.drained += int64(len(msgs))
	}
	return msgs
}

// assertStepBalanced checks that every message sent during a superstep was
// drained by its receiver within that superstep. The phase schedule
// guarantees this (each phase's sends are drained in a later phase before
// finalize ends), so an imbalance means a message was lost in the transport
// or delivered outside its phase — exactly the class of bug a transport
// implementation can introduce silently. The coordinator calls this between
// supersteps, after the finalize barrier, so machine counters are quiescent.
// No-op unless built with -tags graphpart_invariants.
func assertStepBalanced(machines []*machine, step int, delta Totals) {
	if !invariants.Enabled {
		return
	}
	var received int64
	for _, m := range machines {
		received += m.drained
		m.drained = 0
	}
	invariants.Assertf(received == delta.Messages(),
		"superstep %d: transport sent %d messages but machines drained %d", step, delta.Messages(), received)
}

// assertTrafficConsistent checks the run's per-link traffic matrix against
// the per-kind totals: the diagonal must be zero (machine-local state never
// touches the transport) and row/column sums must add up to the same grand
// totals as the per-kind counters. No-op unless built with
// -tags graphpart_invariants.
func assertTrafficConsistent(stats Stats) {
	if !invariants.Enabled {
		return
	}
	links := stats.Links
	if links == nil {
		return
	}
	for i := range links.Messages {
		invariants.Assertf(links.Messages[i][i] == 0 && links.Bytes[i][i] == 0,
			"traffic matrix diagonal [%d][%d] is nonzero: %d messages / %d bytes",
			i, i, links.Messages[i][i], links.Bytes[i][i])
	}
	invariants.Assertf(links.TotalMessages() == stats.Messages(),
		"traffic matrix totals %d messages but per-kind counters total %d",
		links.TotalMessages(), stats.Messages())
	invariants.Assertf(links.TotalBytes() == stats.Bytes(),
		"traffic matrix totals %d bytes but per-kind counters total %d",
		links.TotalBytes(), stats.Bytes())
}

// assertSlotsAscending checks that New laid out every local adjacency in
// ascending canonical-slot order — the order GatherFlush promises its
// Slots in, which New gets from the graph's (U, V)-sorted edge ids rather
// than from a sort. No-op unless built with -tags graphpart_invariants.
func assertSlotsAscending(m *machine) {
	if !invariants.Enabled {
		return
	}
	for i := range m.reps {
		for j := m.off[i] + 1; j < m.off[i+1]; j++ {
			// Boxing the arguments allocates, so format only on failure.
			if m.adjSlot[j-1] >= m.adjSlot[j] {
				invariants.Assertf(false, "machine %d replica %d: arc slots %d, %d not ascending",
					m.id, i, m.adjSlot[j-1], m.adjSlot[j])
			}
		}
	}
}

// assertFrontierAgreement checks, after a finalize barrier, that every
// machine's frontier lists each replica at most once and that every mirror
// is on its machine's frontier exactly when its master is on the master
// machine's — the replica agreement the activation protocol exists to
// establish (DESIGN.md §10). No-op unless built with
// -tags graphpart_invariants.
func assertFrontierAgreement(machines []*machine, step int) {
	if !invariants.Enabled {
		return
	}
	onFrontier := make([][]bool, len(machines))
	for k, m := range machines {
		onFrontier[k] = make([]bool, len(m.reps))
		for _, i := range m.frontier {
			if onFrontier[k][i] {
				invariants.Assertf(false, "superstep %d: machine %d lists replica %d twice on its frontier", step, k, i)
			}
			onFrontier[k][i] = true
		}
	}
	for k, m := range machines {
		for i := range m.reps {
			if !m.isMaster(int32(i)) {
				continue
			}
			r := m.rank[i]
			for x := m.mirrorOff[r]; x < m.mirrorOff[r+1]; x++ {
				mk, ml := m.mirrorMachine[x], m.mirrorLidx[x]
				if onFrontier[mk][ml] != onFrontier[k][i] {
					invariants.Assertf(false, "superstep %d: vertex %d is active=%v at its master on machine %d but active=%v at its mirror on machine %d",
						step, m.reps[i].vert, onFrontier[k][i], k, onFrontier[mk][ml], mk)
				}
			}
		}
	}
}
