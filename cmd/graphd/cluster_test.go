package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/wire"
)

// TestMain lets this test binary double as a cluster worker: a /run with
// "transport":"cluster" re-executes os.Executable() once per machine.
func TestMain(m *testing.M) {
	if wire.MaybeWorker() {
		return
	}
	os.Exit(m.Run())
}

// TestClusterRunTraceAndMergedMetrics drives the daemon's cluster path end
// to end: /trace 404s before any traced run, an untraced cluster /run stays
// bit-identical but caches nothing, and a traced run serves a merged
// multi-process Chrome trace plus machine-labelled metrics on /metrics.
func TestClusterRunTraceAndMergedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	wasEnabled := obs.Enabled()
	obs.Disable()
	t.Cleanup(func() {
		if wasEnabled {
			obs.Enable()
		}
	})
	_, ts := newTestServer(t)

	getJSON(t, ts.URL+"/trace", http.StatusNotFound)

	runBody := map[string]any{
		"program":           "pagerank",
		"family":            "tlp",
		"p":                 4,
		"max_supersteps":    20,
		"transport":         "cluster",
		"verify_sequential": true,
	}

	// Telemetry off: the run must still verify bit-identically, and no
	// telemetry may be cached.
	got := postJSON(t, ts.URL+"/run", runBody, http.StatusOK)
	if verify := got["verify"].(map[string]any); verify["match"] != true {
		t.Fatalf("untraced cluster verify = %v, want exact match", verify)
	}
	if cluster := got["cluster"].(map[string]any); cluster["traced"] != false {
		t.Fatalf("untraced run reported cluster = %v", cluster)
	}
	getJSON(t, ts.URL+"/trace", http.StatusNotFound)

	// Telemetry on: same run, now traced; values must still match the
	// sequential oracle exactly (record-only invariant over HTTP).
	obs.Enable()
	got = postJSON(t, ts.URL+"/run", runBody, http.StatusOK)
	if verify := got["verify"].(map[string]any); verify["match"] != true {
		t.Fatalf("traced cluster verify = %v, want exact match", verify)
	}
	cluster := got["cluster"].(map[string]any)
	if cluster["traced"] != true || cluster["workers"].(float64) != 4 {
		t.Fatalf("traced run cluster = %v, want traced with 4 workers", cluster)
	}
	if cluster["trace_id"].(string) == "" {
		t.Fatal("traced run missing trace_id")
	}

	// /trace serves one merged Chrome trace: a lane per process and
	// per-superstep barrier-skew instants.
	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	lanes := map[string]bool{}
	skews := 0
	for _, ev := range trace.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			lanes[ev["args"].(map[string]any)["name"].(string)] = true
		}
		if ev["name"] == "cluster.barrier_skew" {
			skews++
		}
	}
	for _, want := range []string{"coordinator", "worker0", "worker3"} {
		if !lanes[want] {
			t.Fatalf("merged trace missing %q lane; lanes = %v", want, lanes)
		}
	}
	if skews != int(got["supersteps"].(float64)) {
		t.Fatalf("%d barrier-skew instants, want one per superstep (%v)", skews, got["supersteps"])
	}

	// /metrics labels its own scope and carries the merged worker view.
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	if m["scope"] != "process" || m["process"] != "coordinator" {
		t.Fatalf("metrics scope labels = %v/%v", m["scope"], m["process"])
	}
	cm := m["cluster"].(map[string]any)
	if cm["scope"] != "cluster" || cm["workers"].(float64) != 4 {
		t.Fatalf("cluster metrics block = %v", cm)
	}
	merged := cm["merged"].(map[string]any)
	counters := merged["counters"].(map[string]any)
	agg, ok := counters["engine.host.steps"].(float64)
	if !ok || agg <= 0 {
		t.Fatalf("merged metrics missing aggregate engine.host.steps: %v", counters)
	}
	perWorker := 0.0
	labelled := 0
	for name, v := range counters {
		if strings.HasPrefix(name, "worker") && strings.HasSuffix(name, "/engine.host.steps") {
			perWorker += v.(float64)
			labelled++
		}
	}
	if labelled != 4 || perWorker != agg {
		t.Fatalf("labelled engine.host.steps from %d workers sum to %v, aggregate %v", labelled, perWorker, agg)
	}
}

// TestEngineBuiltLazily checks when a cache entry builds its engine:
// /partition lookups leave it unbuilt, the first in-process /run (mem)
// builds it, a later tcp /run reuses that same engine, and a cluster /run
// never builds one in the daemon — its workers build their own.
func TestEngineBuiltLazily(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	s, ts := newTestServer(t)
	engineOf := func(p int) *engine.Engine {
		t.Helper()
		s.cache.mu.Lock()
		e := s.cache.entries[cacheKey{family: "tlp", p: p}]
		s.cache.mu.Unlock()
		if e == nil {
			t.Fatalf("no cache entry for tlp/p=%d", p)
		}
		e.engMu.Lock()
		defer e.engMu.Unlock()
		return e.eng
	}
	run := func(p int, transport string) map[string]any {
		return postJSON(t, ts.URL+"/run", map[string]any{
			"program": "pagerank", "family": "tlp", "p": p,
			"max_supersteps": 10, "transport": transport,
		}, http.StatusOK)
	}

	for edge := 0; edge < 3; edge++ {
		getJSON(t, fmt.Sprintf("%s/partition?family=tlp&p=4&edge=%d", ts.URL, edge), http.StatusOK)
	}
	if engineOf(4) != nil {
		t.Fatal("/partition lookups built an engine")
	}
	got := run(4, "mem")
	built := engineOf(4)
	if built == nil {
		t.Fatal("first mem /run left the engine unbuilt")
	}
	if rf := got["replication_factor"].(float64); rf != built.ReplicationFactor() {
		t.Fatalf("/run replication_factor %v, engine reports %v", rf, built.ReplicationFactor())
	}
	run(4, "tcp")
	if engineOf(4) != built {
		t.Fatal("tcp /run rebuilt the engine")
	}

	got = run(3, "cluster")
	if engineOf(3) != nil {
		t.Fatal("cluster /run built an in-process engine")
	}
	if rf := got["replication_factor"].(float64); rf < 1 {
		t.Fatalf("cluster /run replication_factor %v, want >= 1", rf)
	}
}
