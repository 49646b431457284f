package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/graphpart/graphpart/internal/gen"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

func smallDataset(t *testing.T, notation string) gen.Dataset {
	t.Helper()
	for _, d := range gen.SmallDatasets() {
		if d.Notation == notation+"s" {
			return d
		}
	}
	t.Fatalf("no small variant of %s", notation)
	return gen.Dataset{}
}

// TestPipelinesSmall runs every workload's pipeline on the small variant of
// its dataset, untraced and traced, at two seeds: every output check must
// pass and every metric of BENCHMARK.json must be emitted with its unit.
func TestPipelinesSmall(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		d := smallDataset(t, w.dataset)
		for _, seed := range []uint64{42, 7} {
			for _, trace := range []bool{false, true} {
				res, err := run(config{workload: w, dataset: d, seed: seed, trace: trace}, io.Discard)
				if err != nil {
					t.Fatalf("%s seed %d trace %t: %v", w.name, seed, trace, err)
				}
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Errorf("%s seed %d trace %t: correct=%t attempted=%d failed=%d",
						w.name, seed, trace, res.correct, res.attempted, res.failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.metrics) != len(want) {
					t.Fatalf("%s trace %t: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.metrics), len(want))
				}
				for i, m := range res.metrics {
					if m.name != want[i].Name || m.unit != want[i].Unit {
						t.Errorf("%s metric %d: emitted %s [%s], BENCHMARK.json %s [%s]",
							w.name, i, m.name, m.unit, want[i].Name, want[i].Unit)
					}
					if m.name == "trace.coverage" && m.value < 0.95 {
						t.Errorf("%s seed %d: trace.coverage %.4f < 0.95", w.name, seed, m.value)
					}
				}
				if err := writeJSONLine(io.Discard, res.jsonValue()); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

// TestCalibration checks that the calibration kernel does the same work in
// every run, that a step timed at the reference speed is not rescaled, and
// that rescaling is proportional.
func TestCalibration(t *testing.T) {
	c, err := newCalibration(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if d := c.time(); d <= 0 {
		t.Fatalf("kernel time %v", d)
	}
	first := slices.Clone(c.rank)
	c.time()
	if !slices.Equal(first, c.rank) {
		t.Error("two kernel runs computed different ranks")
	}
	if s := hostSpeed(calibRef, calibRef); s != 1 {
		t.Errorf("hostSpeed at the reference speed = %v, want 1", s)
	}
	if d := rescaled(3*time.Second, hostSpeed(2*calibRef, 2*calibRef)); d != 1500*time.Millisecond {
		t.Errorf("3s on a host at half the reference speed rescaled to %v, want 1.5s", d)
	}
}
