//go:build graphpart_invariants

package engine

import (
	"strings"
	"testing"
)

// TestEngineUnderSanitizer runs the GAS runtime with message accounting
// compiled in: every superstep must drain exactly what was sent, and the
// final traffic matrix must agree with the per-kind counters, or the run
// panics.
func TestEngineUnderSanitizer(t *testing.T) {
	g := testGraph(11, 200, 500)
	for _, p := range []int{2, 8} {
		e, err := New(g, partitioned(t, g, p))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		_, stats, err := e.Run(NewPageRank(g.NumVertices(), 0.85, 1e-8), 25)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if stats.Supersteps == 0 || stats.Messages() == 0 {
			t.Fatalf("p=%d: run did nothing (steps=%d msgs=%d)", p, stats.Supersteps, stats.Messages())
		}
	}
}

// TestFrontierDisagreementTripsSanitizer plants the two frontier bugs the
// finalize-barrier check exists for — a mirror missing from its machine's
// frontier while its master is on the master's, and a replica listed twice
// — and checks that each one panics.
func TestFrontierDisagreementTripsSanitizer(t *testing.T) {
	g := testGraph(11, 200, 500)
	e, err := New(g, partitioned(t, g, 4))
	if err != nil {
		t.Fatal(err)
	}
	reset := func() {
		tr := NewMemTransport(e.p)
		for _, m := range e.machines {
			m.reset(&DegreeCount{}, tr)
		}
	}
	expectPanic := func(what, want string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: frontier check passed", what)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Fatalf("%s: unexpected panic payload: %v", what, r)
			}
		}()
		assertFrontierAgreement(e.machines, 0)
	}
	reset()
	assertFrontierAgreement(e.machines, 0) // every replica active: agreement

	// Drop the first mirror replica found from its machine's frontier.
	dropped := false
	for _, m := range e.machines {
		for x, i := range m.frontier {
			if !m.isMaster(i) {
				m.frontier = append(m.frontier[:x], m.frontier[x+1:]...)
				dropped = true
				break
			}
		}
		if dropped {
			break
		}
	}
	if !dropped {
		t.Fatal("no mirror replica to drop")
	}
	expectPanic("missing mirror", "at its mirror")

	reset()
	m := e.machines[0]
	m.frontier = append(m.frontier, m.frontier[0])
	expectPanic("duplicate entry", "twice")
}
