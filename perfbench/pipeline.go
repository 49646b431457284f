package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	graphpart "github.com/graphpart/graphpart"
)

// numParts is the partition count of every workload.
const numParts = 10

// workload is one generate → partition → refine → vertex-program pipeline.
// README.md records why each was chosen and which layers it stresses.
type workload struct {
	name    string
	dataset string // notation passed to graphpart.DatasetByNotation
	algo    string // "tlp" or "dbh"
	program string // "pagerank" or "cc"
	// maxSteps bounds the vertex program; CC is run to convergence.
	maxSteps int
	// capacity validates the TLP per-partition load bound; DBH makes no
	// capacity promise, so its assignment is validated without it.
	capacity bool
	// fixedSeed, when nonzero, replaces --seed for the workload's inputs.
	// G9's CC cost and traffic hinge on a few seed-sensitive features: the
	// superstep count is the forest's longest label path (147 to 243 over
	// seeds 1-5) and the traffic comes from ~700 cut vertices (wire bytes
	// spread 34% over ten TLP seeds). Both exceed any regression bound, so
	// the workload keeps one input.
	fixedSeed uint64
}

var workloads = []workload{
	{name: "g8-tlp-refine-pagerank", dataset: "G8", algo: "tlp", program: "pagerank", maxSteps: 20, capacity: true},
	{name: "g5-dbh-refine-pagerank", dataset: "G5", algo: "dbh", program: "pagerank", maxSteps: 20, capacity: false},
	{name: "g9-tlp-refine-cc", dataset: "G9", algo: "tlp", program: "cc", maxSteps: 100000, capacity: true, fixedSeed: 42},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputSeed is the seed of the dataset and the partitioner.
func (w workload) inputSeed(seed uint64) uint64 {
	if w.fixedSeed != 0 {
		return w.fixedSeed
	}
	return seed
}

// partitionLayer names the span and metric prefix of the workload's
// partitioner: TLP lives in internal/core, DBH in internal/streaming.
func (w workload) partitionLayer() string {
	if w.algo == "tlp" {
		return "core.partition"
	}
	return "streaming.partition"
}

func (w workload) newProgram(n int) graphpart.Program {
	if w.program == "cc" {
		return graphpart.NewComponents()
	}
	return graphpart.NewPageRank(n, 0.85, 1e-9)
}

func (w workload) partition(g *graphpart.Graph, seed uint64) (*graphpart.Assignment, graphpart.TLPStats, error) {
	if w.algo == "tlp" {
		return graphpart.NewTLP(graphpart.TLPOptions{Seed: seed}).PartitionStats(g, numParts)
	}
	a, err := graphpart.NewDBH(seed).Partition(g, numParts)
	return a, graphpart.TLPStats{}, err
}

// setupTimes is one dataset build: generation plus the CSR rebuilt from the
// generated edge list, and the host speed that rescales both.
type setupTimes struct {
	generate, fromEdges time.Duration
	speed               float64
}

// setup generates the dataset and rebuilds its CSR from the edge list; the
// rebuilt graph must equal the generated one edge for edge.
func setup(d graphpart.Dataset, seed uint64) (*graphpart.Graph, setupTimes, error) {
	var t setupTimes
	root := graphpart.StartSpan("bench.setup", graphpart.StringAttr("dataset", d.Notation))
	defer root.End()
	sp := root.Child("bench.gen.generate")
	w := graphpart.StartWatch()
	g0 := d.Generate(seed)
	t.generate = w.Elapsed()
	sp.End()
	sp = root.Child("bench.graph.from_edges")
	w = graphpart.StartWatch()
	g, err := graphpart.FromEdges(g0.NumVertices(), g0.Edges())
	t.fromEdges = w.Elapsed()
	sp.End()
	if err != nil {
		return nil, t, fmt.Errorf("FromEdges: %w", err)
	}
	if g.NumVertices() != g0.NumVertices() || !slices.Equal(g.Edges(), g0.Edges()) {
		return nil, t, fmt.Errorf("FromEdges: rebuilt CSR differs from the generated graph")
	}
	return g, t, nil
}

// oracle is the RunSequential result every engine run must reproduce bit
// for bit.
type oracle struct {
	values []float64
	steps  int
	time   time.Duration
	speed  float64
}

func runOracle(w workload, g *graphpart.Graph) (oracle, error) {
	sp := graphpart.StartSpan("bench.engine.sequential")
	sw := graphpart.StartWatch()
	vals, steps, err := graphpart.RunSequential(g, w.newProgram(g.NumVertices()), w.maxSteps)
	o := oracle{values: vals, steps: steps, time: sw.Elapsed()}
	sp.End()
	if err != nil {
		return o, fmt.Errorf("RunSequential: %w", err)
	}
	return o, nil
}

// outcome is everything deterministic an iteration produces; it must be
// identical in every iteration, traced or not.
type outcome struct {
	rf, balance float64
	tlp         graphpart.TLPStats
	refine      graphpart.RefineStats
	supersteps  int
	gatherMsgs  int64
	applyMsgs   int64
	activeMsgs  int64
	wireBytes   int64
}

func (o outcome) messages() int64 { return o.gatherMsgs + o.applyMsgs + o.activeMsgs }

// iteration is one closed-loop pass of the pipeline, in two halves: the
// assign half (partition and Refine) and the job half (ComputeMetrics,
// NewEngine and Run).
type iteration struct {
	traced bool
	// End-to-end timings; rest is the job half, job and ComputeMetrics.
	assign, job, rest time.Duration
	// Layer timings.
	partition, refine, metrics, build, run time.Duration
	out                                    outcome
	// peakRSSMB is the process's peak resident set during the iteration,
	// without the calibration kernel's arrays.
	peakRSSMB float64
	// assignSpeed and jobSpeed rescale the timings of each half to the
	// reference host speed.
	assignSpeed, jobSpeed float64
	// spans holds the trace summary of a traced iteration.
	spans []graphpart.SpanSummary
	// failure is the first error or failed output check, nil if none.
	failure error
}

// timeLayer times one call into a layer and, while telemetry records, wraps
// it in a span under the pipeline span. The same code runs traced and
// untraced: with telemetry off every span is inert.
func timeLayer(root *graphpart.Span, name string, fn func() error) (time.Duration, error) {
	sp := root.Child("bench." + name)
	w := graphpart.StartWatch()
	err := fn()
	d := w.Elapsed()
	sp.End()
	return d, err
}

// assignS, jobS and pipelineS are the end-to-end timings at the reference
// host speed.
func (it iteration) assignS() time.Duration { return rescaled(it.assign, it.assignSpeed) }
func (it iteration) jobS() time.Duration    { return rescaled(it.job, it.jobSpeed) }
func (it iteration) pipelineS() time.Duration {
	return it.assignS() + rescaled(it.rest, it.jobSpeed)
}

// iterate runs the pipeline once: partition and refine, then between, then
// metrics, engine build and run. With traced set, telemetry records for
// this iteration only. The returned assignment is nil when the pipeline
// failed before producing one.
func iterate(w workload, g *graphpart.Graph, orc oracle, seed uint64, traced bool, between func()) (iteration, *graphpart.Assignment) {
	it := iteration{traced: traced}
	if traced {
		graphpart.ResetTelemetry()
		graphpart.EnableTelemetry()
	}
	a, vals, err := it.runPipeline(w, g, seed, between)
	if traced {
		graphpart.DisableTelemetry()
		it.spans = graphpart.SummarizeTrace()
	}
	if err != nil {
		it.failure = err
		return it, a
	}
	it.failure = it.check(w, g, a, vals, orc)
	return it, a
}

// check validates one iteration's outputs: a complete (and, for TLP,
// capacity-respecting) assignment, metrics that agree with what Refine
// reported, and engine values bit-identical to the sequential oracle.
func (it *iteration) check(w workload, g *graphpart.Graph, a *graphpart.Assignment, vals []float64, orc oracle) error {
	if err := graphpart.Validate(g, a, graphpart.ValidateOptions{SkipCapacity: !w.capacity}); err != nil {
		return fmt.Errorf("Validate: %w", err)
	}
	if it.out.rf != it.out.refine.RFAfter {
		return fmt.Errorf("ComputeMetrics RF %v != RefineStats.RFAfter %v", it.out.rf, it.out.refine.RFAfter)
	}
	if it.out.supersteps != orc.steps {
		return fmt.Errorf("engine ran %d supersteps, RunSequential %d", it.out.supersteps, orc.steps)
	}
	if len(vals) != len(orc.values) {
		return fmt.Errorf("engine returned %d values, RunSequential %d", len(vals), len(orc.values))
	}
	for v := range vals {
		if math.Float64bits(vals[v]) != math.Float64bits(orc.values[v]) {
			return fmt.Errorf("engine value of vertex %d is %v, RunSequential %v", v, vals[v], orc.values[v])
		}
	}
	return nil
}

// runPipeline times each half under its own bench.pipeline span, so that
// between is in neither the timings nor the trace.
func (it *iteration) runPipeline(w workload, g *graphpart.Graph, seed uint64, between func()) (*graphpart.Assignment, []float64, error) {
	a, err := it.runAssign(w, g, seed)
	if err != nil {
		return a, nil, err
	}
	between()
	vals, err := it.runJob(w, g, a)
	return a, vals, err
}

func (it *iteration) runAssign(w workload, g *graphpart.Graph, seed uint64) (*graphpart.Assignment, error) {
	root := graphpart.StartSpan("bench.pipeline", graphpart.StringAttr("workload", w.name))
	defer root.End()
	total := graphpart.StartWatch()

	var (
		a   *graphpart.Assignment
		err error
	)
	if it.partition, err = timeLayer(&root, w.partitionLayer(), func() (err error) {
		a, it.out.tlp, err = w.partition(g, seed)
		return err
	}); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	if it.refine, err = timeLayer(&root, "refine.run", func() (err error) {
		it.out.refine, err = graphpart.Refine(g, a, graphpart.RefineOptions{})
		return err
	}); err != nil {
		return a, fmt.Errorf("Refine: %w", err)
	}
	it.assign = total.Elapsed()
	return a, nil
}

func (it *iteration) runJob(w workload, g *graphpart.Graph, a *graphpart.Assignment) ([]float64, error) {
	root := graphpart.StartSpan("bench.pipeline", graphpart.StringAttr("workload", w.name))
	defer root.End()
	total := graphpart.StartWatch()

	var (
		m   graphpart.Metrics
		err error
	)
	if it.metrics, err = timeLayer(&root, "partition.metrics", func() (err error) {
		m, err = graphpart.ComputeMetrics(g, a)
		return err
	}); err != nil {
		return nil, fmt.Errorf("ComputeMetrics: %w", err)
	}
	it.out.rf, it.out.balance = m.ReplicationFactor, m.Balance

	jobStart := total.Elapsed()
	var e *graphpart.Engine
	if it.build, err = timeLayer(&root, "engine.build", func() (err error) {
		e, err = graphpart.NewEngine(g, a)
		return err
	}); err != nil {
		return nil, fmt.Errorf("NewEngine: %w", err)
	}
	var (
		vals []float64
		st   graphpart.EngineStats
	)
	if it.run, err = timeLayer(&root, "engine.run", func() (err error) {
		vals, st, err = e.Run(w.newProgram(g.NumVertices()), w.maxSteps)
		return err
	}); err != nil {
		return nil, fmt.Errorf("Engine.Run: %w", err)
	}
	it.rest = total.Elapsed()
	it.job = it.rest - jobStart

	it.out.supersteps = st.Supersteps
	it.out.gatherMsgs, it.out.applyMsgs, it.out.activeMsgs = st.GatherMessages, st.ApplyMessages, st.ActivateMessages
	it.out.wireBytes = st.Bytes()
	return vals, nil
}
