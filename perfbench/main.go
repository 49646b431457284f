// Command perfbench is the repository benchmark. It runs one workload — a
// generate → partition → refine → vertex-program pipeline — as a closed
// loop for a fixed time, checks every iteration's outputs, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload g8-tlp-refine-pagerank --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// telemetry off. With --trace 1 it alternates untraced and traced
// iterations and reports the per-layer metrics. README.md lists the
// workloads and what each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	graphpart "github.com/graphpart/graphpart"
	"github.com/graphpart/graphpart/internal/parallel"
)

// setupReps is how many times a run builds its dataset; setup_s is the
// median.
const setupReps = 3

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 42, "seed of the dataset, the partitioner and the hash")
	seconds := flag.Float64("seconds", 20, "how long the closed loop runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, telemetry off; 1: per-layer metrics from a traced run")
	commit := flag.String("commit", "unknown", "source commit recorded in the machine header")
	flag.Parse()

	w, err := workloadByName(*workloadName)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		exit(2, err)
	}
	d, err := graphpart.DatasetByNotation(w.dataset)
	if err != nil {
		exit(2, err)
	}
	cfg := config{workload: w, dataset: d, seed: *seed, seconds: *seconds, trace: *trace == 1}
	clampToNproc()
	if err := writeJSONLine(os.Stdout, map[string]any{"machine": machineHeader(cfg, *commit)}); err != nil {
		exit(1, err)
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		exit(1, err)
	}
	if err := writeJSONLine(os.Stdout, res.jsonValue()); err != nil {
		exit(1, err)
	}
	if !res.correct {
		os.Exit(1)
	}
}

func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(code)
}

type config struct {
	workload workload
	dataset  graphpart.Dataset
	seed     uint64
	seconds  float64
	trace    bool
}

// clampToNproc keeps GOMAXPROCS and the worker pool at or below nproc.
func clampToNproc() {
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	if parallel.Workers(0) > nproc {
		os.Setenv(parallel.EnvWorkers, strconv.Itoa(nproc))
	}
}

// machineHeader records what a result was measured on.
func machineHeader(cfg config, commit string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    parallel.Workers(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"workload":   cfg.workload.name,
		"dataset":    cfg.dataset.Notation,
		"seed":       cfg.seed,
		"input_seed": cfg.workload.inputSeed(cfg.seed),
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonValue is the result line's schema.
func (r result) jsonValue() any {
	metrics := make(map[string]jsonMetric, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics}
}

// writeJSONLine fails on NaN or infinite values, which JSON cannot hold.
func writeJSONLine(out io.Writer, v any) error {
	enc, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", enc)
	return err
}

// run builds the dataset setupReps times, computes the sequential oracle,
// then runs the pipeline as a closed loop until cfg.seconds have passed.
// The calibration kernel runs after a forced GC between every two timed
// steps. Failed checks are logged to diag and counted in the result; an
// error is returned only when the workload cannot start.
func run(cfg config, diag io.Writer) (result, error) {
	w := cfg.workload
	seed := w.inputSeed(cfg.seed)
	cal, err := newCalibration(runtime.GOMAXPROCS(0))
	if err != nil {
		return result{}, err
	}
	defer cal.close()
	// calibrate returns the host speed of the step since the previous call.
	// The first kernel run only warms up and is not used.
	cal.time()
	calibs := []time.Duration{cal.time()}
	calibrate := func() float64 {
		runtime.GC()
		calibs = append(calibs, cal.time())
		return hostSpeed(calibs[len(calibs)-2], calibs[len(calibs)-1])
	}
	// A traced run records the set-up and oracle spans too; an untraced
	// run records nothing, whatever the environment says.
	if cfg.trace {
		graphpart.EnableTelemetry()
	} else {
		graphpart.DisableTelemetry()
	}
	var (
		g      *graphpart.Graph
		setups []setupTimes
	)
	for range setupReps {
		g = nil
		calibrate() // every build starts from an empty heap
		var t setupTimes
		if g, t, err = setup(cfg.dataset, seed); err != nil {
			return result{}, fmt.Errorf("setup %s: %w", cfg.dataset.Notation, err)
		}
		t.speed = calibrate()
		setups = append(setups, t)
		c := calibs[len(calibs)-2:]
		fmt.Fprintf(diag, "setup %d wall generate=%.3fs from_edges=%.3fs calibration=%.4f/%.4fs\n",
			len(setups)-1, t.generate.Seconds(), t.fromEdges.Seconds(), c[0].Seconds(), c[1].Seconds())
	}
	orc, err := runOracle(w, g)
	graphpart.DisableTelemetry()
	if err != nil {
		return result{}, err
	}
	orc.speed = calibrate()

	// A traced run alternates untraced and traced iterations, so that
	// trace.overhead compares neighbours rather than the start and end of
	// the run.
	var (
		iters []iteration
		last  *graphpart.Assignment
	)
	loop := graphpart.StartWatch()
	minIters := 1
	if cfg.trace {
		minIters = 2
	}
	for len(iters) < minIters || loop.Seconds() < cfg.seconds {
		// Every iteration starts from the same heap, which calibrate has
		// just collected and in which only the graph and the oracle are
		// live, and measures its own peak RSS.
		if err := resetPeakRSS(); err != nil {
			return result{}, err
		}
		var assignSpeed float64
		it, a := iterate(w, g, orc, seed, cfg.trace && len(iters)%2 == 1, func() { assignSpeed = calibrate() })
		if it.peakRSSMB, err = peakRSSMB(); err != nil {
			return result{}, err
		}
		it.peakRSSMB -= calibBytes / (1 << 20)
		it.assignSpeed, it.jobSpeed = assignSpeed, calibrate()
		if a != nil {
			last = a
		}
		iters = append(iters, it)
		c := calibs[len(calibs)-3:]
		fmt.Fprintf(diag, "iteration %d traced=%t wall partition=%.3fs refine=%.3fs assign=%.3fs job=%.3fs pipeline=%.3fs calibration=%.4f/%.4f/%.4fs\n",
			len(iters)-1, it.traced, it.partition.Seconds(), it.refine.Seconds(), it.assign.Seconds(), it.job.Seconds(),
			(it.assign + it.rest).Seconds(), c[0].Seconds(), c[1].Seconds(), c[2].Seconds())
	}
	markDivergent(iters)

	res := result{correct: true, attempted: len(iters)}
	for i, it := range iters {
		if it.failure != nil {
			res.failed++
			res.correct = false
			fmt.Fprintf(diag, "iteration %d (traced=%t): %v\n", i, it.traced, it.failure)
		}
	}
	if cfg.trace {
		engineBytes, err := engineFootprint(g, last)
		if err != nil {
			return result{}, err
		}
		res.metrics = perLayerMetrics(w, g, setups, orc, iters, engineBytes)
	} else {
		res.metrics = endToEndMetrics(setups, iters)
	}
	return res, nil
}

// markDivergent fails every iteration whose deterministic outputs differ
// from the first successful one — in a traced run this is the record-only
// check: telemetry must not change rf, balance, traffic or any count.
func markDivergent(iters []iteration) {
	ref := -1
	for i := range iters {
		if iters[i].failure == nil {
			ref = i
			break
		}
	}
	if ref < 0 {
		return
	}
	for i := range iters {
		if iters[i].failure == nil && iters[i].out != iters[ref].out {
			iters[i].failure = fmt.Errorf("deterministic outputs differ from iteration %d: %+v != %+v",
				ref, iters[i].out, iters[ref].out)
		}
	}
}

func endToEndMetrics(setups []setupTimes, iters []iteration) []metric {
	rss := make([]float64, len(iters))
	for i, it := range iters {
		rss[i] = it.peakRSSMB
	}
	out := firstOutcome(iters)
	return []metric{
		{"setup_s", medianOf(setups, func(t setupTimes) time.Duration { return rescaled(t.generate+t.fromEdges, t.speed) }), "s"},
		{"assign_s", medianOf(iters, iteration.assignS), "s"},
		{"job_s", medianOf(iters, iteration.jobS), "s"},
		{"pipeline_s", medianOf(iters, iteration.pipelineS), "s"},
		{"rf", out.rf, "ratio"},
		{"balance", out.balance, "ratio"},
		{"wire_bytes", float64(out.wireBytes), "bytes"},
		{"peak_rss_mb", median(rss), "MB"},
	}
}

// engineFootprint measures the heap bytes NewEngine on a retains, between
// two forced collections. It runs once, outside the timed loop.
func engineFootprint(g *graphpart.Graph, a *graphpart.Assignment) (float64, error) {
	if a == nil {
		return 0, errors.New("no iteration produced an assignment")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := graphpart.NewEngine(g, a)
	if err != nil {
		return 0, fmt.Errorf("NewEngine: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc), nil
}

func perLayerMetrics(w workload, g *graphpart.Graph, setups []setupTimes, orc oracle,
	iters []iteration, engineBytes float64) []metric {
	var traced, untraced []iteration
	for _, it := range iters {
		if it.traced {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	// assignHalf and jobHalf are medians over the traced iterations of a
	// timing in that half, at the reference host speed.
	assignHalf := func(get func(iteration) time.Duration) float64 {
		return medianOf(traced, func(it iteration) time.Duration { return rescaled(get(it), it.assignSpeed) })
	}
	jobHalf := func(get func(iteration) time.Duration) float64 {
		return medianOf(traced, func(it iteration) time.Duration { return rescaled(get(it), it.jobSpeed) })
	}
	span := func(half func(func(iteration) time.Duration) float64, name string) float64 {
		return half(func(it iteration) time.Duration { return spanTotal(it.spans, name) })
	}
	out := firstOutcome(iters)
	partitionS := assignHalf(func(it iteration) time.Duration { return it.partition })
	corePartitionS, streamingPartitionS := partitionS, 0.0
	if w.algo != "tlp" {
		corePartitionS, streamingPartitionS = 0, partitionS
	}
	refineS := assignHalf(func(it iteration) time.Duration { return it.refine })
	runS := jobHalf(func(it iteration) time.Duration { return it.run })
	sequentialS := rescaled(orc.time, orc.speed).Seconds()
	coverage := make([]float64, len(traced))
	for i, it := range traced {
		coverage[i] = traceCoverage(it.spans)
	}

	return []metric{
		{"gen.generate_s", medianOf(setups, func(t setupTimes) time.Duration { return rescaled(t.generate, t.speed) }), "s"},
		{"graph.from_edges_s", medianOf(setups, func(t setupTimes) time.Duration { return rescaled(t.fromEdges, t.speed) }), "s"},

		{"core.partition_s", corePartitionS, "s"},
		{"core.stage1_s", span(assignHalf, "tlp.stage1"), "s"},
		{"core.stage2_s", span(assignHalf, "tlp.stage2"), "s"},
		{"core.s1_intersect_s", span(assignHalf, "tlp.s1.intersect"), "s"},
		{"core.stage1_selections", float64(out.tlp.Stage1Selections), "count"},
		{"core.stage2_selections", float64(out.tlp.Stage2Selections), "count"},
		{"core.reseeds", float64(out.tlp.Reseeds), "count"},
		{"core.partial_absorptions", float64(out.tlp.PartialAbsorptions), "count"},
		{"core.swept_edges", float64(out.tlp.SweptEdges), "count"},

		{"streaming.partition_s", streamingPartitionS, "s"},

		{"refine.run_s", refineS, "s"},
		{"refine.passes", float64(out.refine.Passes), "count"},
		{"refine.moves", float64(out.refine.Moves), "count"},
		{"refine.swaps", float64(out.refine.Swaps), "count"},
		{"refine.replicas_removed", float64(out.refine.ReplicasRemoved), "count"},
		{"refine.rf_gain", out.refine.RFBefore - out.refine.RFAfter, "ratio"},
		{"refine.replicas_removed_per_s", float64(out.refine.ReplicasRemoved) / refineS, "1/s"},
		{"refine.share_of_partition", refineS / partitionS, "ratio"},

		{"partition.metrics_s", jobHalf(func(it iteration) time.Duration { return it.metrics }), "s"},

		{"engine.build_s", jobHalf(func(it iteration) time.Duration { return it.build }), "s"},
		{"engine.build_mb", engineBytes / (1 << 20), "MB"},
		{"engine.bytes_per_edge", engineBytes / float64(g.NumEdges()), "bytes"},
		{"engine.run_s", runS, "s"},
		{"engine.supersteps", float64(out.supersteps), "count"},
		{"engine.superstep_s", runS / float64(out.supersteps), "s"},
		{"engine.messages", float64(out.messages()), "count"},
		{"engine.gather_messages", float64(out.gatherMsgs), "count"},
		{"engine.apply_messages", float64(out.applyMsgs), "count"},
		{"engine.activate_messages", float64(out.activeMsgs), "count"},
		{"engine.gather_s", span(jobHalf, "engine.gather"), "s"},
		{"engine.apply_s", span(jobHalf, "engine.apply"), "s"},
		{"engine.scatter_s", span(jobHalf, "engine.scatter"), "s"},
		{"engine.activate_s", span(jobHalf, "engine.activate"), "s"},
		{"engine.sequential_s", sequentialS, "s"},
		{"engine.run_over_sequential", runS / sequentialS, "ratio"},

		{"trace.coverage", median(coverage), "ratio"},
		{"trace.overhead", medianOf(traced, iteration.pipelineS) / medianOf(untraced, iteration.pipelineS), "ratio"},
	}
}

// layerSpans are the benchmark's spans around the calls into each layer of
// the pipeline; their union is the pipeline span.
var layerSpans = []string{
	"bench.core.partition", "bench.streaming.partition", "bench.refine.run",
	"bench.partition.metrics", "bench.engine.build", "bench.engine.run",
}

// traceCoverage is the share of the pipeline spans (one per half) that layer
// spans cover.
func traceCoverage(spans []graphpart.SpanSummary) float64 {
	var covered time.Duration
	for _, name := range layerSpans {
		covered += spanTotal(spans, name)
	}
	return covered.Seconds() / spanTotal(spans, "bench.pipeline").Seconds()
}

func spanTotal(spans []graphpart.SpanSummary, name string) time.Duration {
	for _, s := range spans {
		if s.Name == name {
			return time.Duration(s.TotalSeconds * float64(time.Second))
		}
	}
	return 0
}

func firstOutcome(iters []iteration) outcome {
	for _, it := range iters {
		if it.failure == nil {
			return it.out
		}
	}
	return iters[0].out
}

func medianOf[T any](xs []T, get func(T) time.Duration) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = get(x).Seconds()
	}
	return median(vals)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
