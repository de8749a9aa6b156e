package main

import (
	"fmt"
	"maps"
	"runtime"
	"strconv"
	"time"

	"tiscc"
	"tiscc/internal/decoder"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
	"tiscc/internal/verify"
)

// batchSpec is an in-process memory workload: one (d, rounds, p) point
// driven through the same public calls `tiscc-bench -noise` makes.
type batchSpec struct {
	name      string
	d, rounds int
	p         float64 // depolarizing strength
	decode    bool    // union-find decoded (false: raw transversal readout)

	reqShots  int // shots per estimate request
	setupReps int // cold set-ups, each followed by one request (the misses)
	traceReps int // cold set-ups in the traced run
	ciReps    int // this many set-ups, spread over the run, also run an estimate to a CI

	// ciHalfWidth is the stated 95% Wilson half-width of time_to_ci_s and
	// ciBatch the early-stopping check interval. The interval is chosen so
	// that the run stops at its first check for any seed: the metric then
	// measures the cost of one CI, not how lucky the seed's error count was.
	ciHalfWidth float64
	ciBatch     int

	hitTail, missTail float64 // tail percentiles reported
}

// point is one compiled (circuit, noise, decoder, sampler) estimate point.
type point struct {
	prog    *orqcs.Program
	outcome expr.Expr
	ref     bool
	model   noise.Model
	sched   *noise.Schedule
	graph   *decoder.Graph // nil: raw readout
	sim     *frame.Sim
}

// build compiles the point from its inputs: circuit, schedule, detectors
// and decoding graph, and the frame sampler's reference shot. With a
// tracer, each layer call gets a span under parent and allocMB reports the
// bytes the graph compile allocated.
func (sp batchSpec) build(tr *tracer, parent int) (pt *point, allocMB float64, err error) {
	pt = &point{model: noise.Depolarizing(sp.p)}
	var mem *verify.Memory
	tr.timed("verify.experiment", parent, func() {
		mem, err = verify.MemoryExperiment(sp.d, sp.rounds, pauli.Z)
	})
	if err != nil {
		return nil, 0, err
	}
	pt.prog, pt.outcome, pt.ref = mem.Prog, mem.Outcome, mem.Reference
	tr.timed("noise.compile", parent, func() { pt.sched = noise.Compile(pt.model, pt.prog) })
	if sp.decode {
		var dets *decoder.Detectors
		tr.timed("decoder.extract", parent, func() { dets, err = decoder.Extract(mem) })
		if err != nil {
			return nil, 0, err
		}
		var before runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		tr.timed("decoder.graph_compile", parent, func() { pt.graph, err = decoder.CompileGraph(dets, pt.sched) })
		if err != nil {
			return nil, 0, err
		}
		if tr != nil {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		}
	}
	tr.timed("frame.reference", parent, func() { pt.sim, err = frame.New(pt.prog, pt.sched) })
	return pt, allocMB, err
}

// options is the production estimator configuration for the point: the
// frame sampler and (when decoding) the union-find graph injected, exactly
// as `tiscc-bench -noise` and the serve handler do.
func (pt *point) options(shots int, seed int64, workers int) noise.Options {
	opt := noise.Options{Shots: shots, Seed: seed, Workers: workers, Sampler: pt.sim}
	if pt.graph != nil {
		opt.Decoder = pt.graph
	}
	return opt
}

func (pt *point) estimate(opt noise.Options) (noise.Result, error) {
	return noise.EstimateLogicalError(pt.sched, pt.outcome, pt.ref, opt)
}

// estimateTraced runs a one-worker estimate with a span around every
// sampler batch, record transpose and decode the estimator makes.
func (pt *point) estimateTraced(tr *tracer, parent, shots int, seed int64) (noise.Result, error) {
	id := tr.open("noise.estimate", parent)
	defer tr.close(id)
	opt := noise.Options{Shots: shots, Seed: seed, Workers: 1,
		Sampler: &tracedSampler{sim: pt.sim, tr: tr, parent: id}}
	if pt.graph != nil {
		opt.Decoder = &tracedDecoder{g: pt.graph, tr: tr, parent: id}
	}
	return pt.estimate(opt)
}

// tracedSampler is frame.Sim.SampleRecords at one worker, with spans
// around Batch.Run and Batch.Records.
type tracedSampler struct {
	sim    *frame.Sim
	tr     *tracer
	parent int
	b      *frame.Batch
}

func (s *tracedSampler) SampleRecords(shots int, seed int64, workers int, visit func(int, map[int32]bool) error) error {
	if workers != 1 {
		return fmt.Errorf("traced sampler runs at one worker, got %d", workers)
	}
	if s.b == nil {
		s.b = s.sim.NewBatch()
	}
	for first := 0; first < shots; first += 64 {
		n := min(64, shots-first)
		t0 := s.tr.now()
		s.b.Run(first, n, seed)
		s.tr.add("frame.sample", s.parent, t0, s.tr.now())
		for lane := 0; lane < n; lane++ {
			t0 := s.tr.now()
			rec := s.b.Records(lane)
			s.tr.add("frame.records", s.parent, t0, s.tr.now())
			if err := visit(first+lane, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// tracedDecoder wraps Graph.DecodeOutcome in a span.
type tracedDecoder struct {
	g      *decoder.Graph
	tr     *tracer
	parent int
}

func (d *tracedDecoder) DecodeOutcome(records map[int32]bool) bool {
	t0 := d.tr.now()
	v := d.g.DecodeOutcome(records)
	d.tr.add("decoder.decode", d.parent, t0, d.tr.now())
	return v
}

// snapshot captures the point's decoder and sampler counters (at
// quiescence: between estimates).
type snapshot struct{ dec, smp *telemetry.Snapshot }

func (pt *point) snapshot() snapshot {
	s := snapshot{smp: pt.sim.Metrics()}
	if pt.graph != nil {
		s.dec = pt.graph.Metrics()
	}
	return s
}

// counts returns the deterministic work counts of the shots run between
// two snapshots, plus the point's structural sizes.
func (pt *point) counts(a, b snapshot) map[string]float64 {
	c := map[string]float64{
		"orqcs.instrs":      float64(pt.prog.NumInstrs()),
		"noise.fault_sites": float64(pt.sched.NumFaultSites()),
		"frame.events":      float64(pt.sim.NumEvents()),
	}
	diff := func(x, y *telemetry.Snapshot, name string) float64 {
		return float64(y.Counter(name) - x.Counter(name))
	}
	if shots := diff(a.smp, b.smp, "shots"); shots > 0 {
		c["frame.faults_fired_per_shot"] = diff(a.smp, b.smp, "faults_fired") / shots
	}
	if pt.graph != nil {
		c["decoder.detectors"] = float64(pt.graph.Detectors().NumDetectors())
		c["decoder.edges"] = float64(len(pt.graph.Edges()))
		if shots := diff(a.dec, b.dec, "shots"); shots > 0 {
			c["decoder.defects_per_shot"] = diff(a.dec, b.dec, "defects") / shots
			c["decoder.grow_rounds_per_shot"] = diff(a.dec, b.dec, "growth_rounds") / shots
			c["decoder.empty_syndrome_ratio"] = diff(a.dec, b.dec, "empty_syndromes") / shots
		}
	}
	return c
}

// loop is a closed loop of estimate requests, run in slices. Request i
// always uses the same seed, so loops at different worker counts can be
// compared request by request; request 0's work counts are taken between
// snapshots.
type loop struct {
	name    string
	workers int
	traced  bool // every request a traced one-worker estimate
	allocs  bool // count request 0's heap allocations

	lat     []float64 // per-request latency, ms
	shots   int
	wall    time.Duration
	results []noise.Result // request i's result
	counts  map[string]float64
	mallocs float64
}

func (l *loop) shotsPerS() float64 { return float64(l.shots) / l.wall.Seconds() }

// slice issues requests back to back for d (at least one) and reports
// whether all succeeded.
func (sp batchSpec) slice(l *loop, pt *point, r *report, e *env, d time.Duration) bool {
	root := e.tr.open(l.name, 0)
	defer e.tr.close(root)
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		i := len(l.results)
		seed := subSeed(e.seed, streamReq, i)
		var before snapshot
		var ms0 runtime.MemStats
		if i == 0 {
			before = pt.snapshot()
			if l.allocs {
				runtime.ReadMemStats(&ms0)
			}
		}
		t0 := time.Now()
		var res noise.Result
		var err error
		if l.traced {
			id := e.tr.open("bench.request", root)
			res, err = pt.estimateTraced(e.tr, id, sp.reqShots, seed)
			e.tr.close(id)
		} else {
			res, err = pt.estimate(pt.options(sp.reqShots, seed, l.workers))
		}
		lat := time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			r.fault("request %d: %v", i, err)
			return false
		}
		if i == 0 {
			if l.allocs {
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				l.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
			}
			l.counts = pt.counts(before, pt.snapshot())
		}
		l.lat = append(l.lat, ms(lat))
		l.shots += res.Shots
		l.results = append(l.results, res)
	}
	l.wall += time.Since(start)
	return true
}

// rounds is how many rounds a run is spread over.
const rounds = 10

// runRounds spreads a run over rounds: each round runs its share of the n
// cold repetitions, then one slice of each loop, so every metric is sampled
// across the whole run and slow drift of the machine touches all of them
// alike. The loops get window/2 each.
func runRounds(window time.Duration, n int, cold func(rep int) bool, a, b func(time.Duration) bool) bool {
	slice := window / (2 * rounds)
	for r := 0; r < rounds; r++ {
		for rep := (r*n + rounds - 1) / rounds; rep < ((r+1)*n+rounds-1)/rounds; rep++ {
			if !cold(rep) {
				return false
			}
		}
		runtime.GC()
		if !a(slice) || !b(slice) {
			return false
		}
	}
	return true
}

// coldRep is one set-up from inputs followed by a request (a miss) and,
// when ci is set, an early-stopped estimate to the stated CI.
type coldRep struct {
	pt                *point
	setup, miss, ttci time.Duration
	allocMB           float64
	ci                noise.Result
}

func (sp batchSpec) cold(rep int, ci bool, r *report, e *env) (coldRep, bool) {
	var c coldRep
	runtime.GC()
	root := e.tr.open("bench.setup", 0)
	t0 := time.Now()
	pt, alloc, err := sp.build(e.tr, root)
	c.setup = time.Since(t0)
	e.tr.close(root)
	r.attempted++
	if err != nil {
		r.failed++
		r.fault("set-up %d: %v", rep, err)
		return c, false
	}
	c.pt, c.allocMB = pt, alloc

	id := e.tr.open("bench.miss", 0)
	t1 := time.Now()
	_, err = pt.estimate(pt.options(sp.reqShots, subSeed(e.seed, streamCold, rep), e.workers))
	c.miss = c.setup + time.Since(t1)
	e.tr.close(id)
	r.attempted++
	if err != nil {
		r.failed++
		r.fault("miss %d: %v", rep, err)
		return c, false
	}
	if !ci {
		return c, true
	}
	id = e.tr.open("bench.ci", 0)
	opt := pt.options(4*sp.ciBatch, subSeed(e.seed, streamCI, rep), e.workers)
	opt.TargetStdErr = sp.ciHalfWidth / 1.959963984540054
	opt.Batch = sp.ciBatch
	t2 := time.Now()
	c.ci, err = pt.estimate(opt)
	c.ttci = c.setup + time.Since(t2)
	e.tr.close(id)
	r.attempted++
	if err != nil {
		r.failed++
		r.fault("ci %d: %v", rep, err)
		return c, false
	}
	if c.ci.EarlyStopBatch == 0 || c.ci.HalfWidth > sp.ciHalfWidth {
		r.fault("ci %d: half-width %.3g not reached in %d shots", rep, sp.ciHalfWidth, c.ci.Shots)
	}
	return c, true
}

func (sp batchSpec) run(e *env) *report {
	r := newReport()
	reps := sp.setupReps
	if e.tr != nil {
		reps = sp.traceReps
	}
	var setups, misses, ttcis, allocs []float64
	var pt *point
	cold := func(rep int) bool {
		ci := rep%max(1, reps/sp.ciReps) == 0 && len(ttcis) < sp.ciReps
		c, ok := sp.cold(rep, ci, r, e)
		if !ok {
			return false
		}
		setups = append(setups, c.setup.Seconds())
		misses = append(misses, ms(c.miss))
		allocs = append(allocs, c.allocMB)
		if ci {
			ttcis = append(ttcis, c.ttci.Seconds())
		}
		if rep == 0 {
			pt = c.pt
			r.results["ci.shots"] = strconv.Itoa(c.ci.Shots)
			r.results["ci.errors"] = strconv.Itoa(c.ci.Errors)
		}
		return true
	}
	// Two loops of identical requests on the first set-up's point: at all
	// cores and one worker untraced, or untraced and traced at one worker.
	a := &loop{name: "bench.loop", workers: e.workers}
	b := &loop{name: "bench.loop.1w", workers: 1}
	if e.tr != nil {
		a = &loop{name: "bench.loop.1w", workers: 1, allocs: true}
		b = &loop{name: "bench.loop.traced", workers: 1, traced: true}
	}
	ok := runRounds(e.window, reps, cold,
		func(d time.Duration) bool { return sp.slice(a, pt, r, e, d) },
		func(d time.Duration) bool { return sp.slice(b, pt, r, e, d) })
	peak := maxRSSMB()
	if !ok || r.failed > 0 {
		return r
	}
	r.note("%s: d=%d rounds=%d p=%g decode=%v, %d qubits, %d instructions, %d workers (a %d-shot request keeps at most %d busy)",
		sp.name, sp.d, sp.rounds, sp.p, sp.decode, pt.prog.NumQubits(), pt.prog.NumInstrs(), e.workers,
		sp.reqShots, min(e.workers, (sp.reqShots+63)/64))

	gate := e.tr.open("bench.gates", 0)
	for i := 0; i < min(len(a.results), len(b.results)); i++ {
		if a.results[i] != b.results[i] {
			r.fault("request %d: %+v at one worker count, %+v at the other", i, a.results[i], b.results[i])
			break
		}
	}
	if !maps.Equal(a.counts, b.counts) {
		r.fault("work counts drifted between loops: %v vs %v", a.counts, b.counts)
	}
	r.results["fixed.shots"] = strconv.Itoa(a.results[0].Shots)
	r.results["fixed.errors"] = strconv.Itoa(a.results[0].Errors)
	r.setCounts(a.counts)
	if err := oracle(pt, subSeed(e.seed, streamReq, 0)); err != nil {
		r.fault("%v", err)
	}
	e.tr.close(gate)

	if e.tr == nil {
		r.metrics["setup_s"] = median(setups)
		r.metrics["time_to_ci_s"] = median(ttcis)
		r.metrics["shots_per_s"] = a.shotsPerS()
		r.metrics["shots_per_s_1w"] = b.shotsPerS()
		r.metrics["peak_rss_mb"] = peak
		r.metrics["req_per_s"] = float64(len(a.lat)) / a.wall.Seconds()
		var note string
		r.metrics["hit_p50_ms"], r.metrics["hit_tail_ms"], note = latencySummary("hit (warm request)", a.lat, sp.hitTail)
		r.note("%s", note)
		r.metrics["miss_p50_ms"], r.metrics["miss_tail_ms"], note = latencySummary("miss (set-up + request)", misses, sp.missTail)
		r.note("%s", note)
		r.note("set-up n=%d, time-to-CI n=%d (half-width %.3g)", len(setups), len(ttcis), sp.ciHalfWidth)
		return r
	}

	st := e.tr.analyze()
	medS := func(name string) float64 { return median(durSeconds(st.durs[name])) }
	r.metrics["verify.experiment_s"] = medS("verify.experiment")
	r.metrics["noise.compile_s"] = medS("noise.compile")
	r.metrics["decoder.extract_s"] = medS("decoder.extract")
	r.metrics["decoder.graph_compile_s"] = medS("decoder.graph_compile")
	r.metrics["decoder.graph_compile_alloc_mb"] = median(allocs)
	r.metrics["frame.reference_ms"] = medS("frame.reference") * 1e3
	r.setShotLayers(st, b.shots)
	r.metrics["noise.estimate_allocs_per_shot"] = a.mallocs / float64(a.results[0].Shots)
	r.metrics["trace.overhead_ratio"] = b.shotsPerS() / a.shotsPerS()
	return r
}

// setShotLayers reports per-shot layer times from the traced estimates.
func (r *report) setShotLayers(st traceStats, shots int) {
	perShot := func(ns int64) float64 { return float64(ns) / 1e3 / float64(shots) }
	r.metrics["frame.sample_us_per_shot"] = perShot(sum(st.durs["frame.sample"]))
	r.metrics["frame.records_us_per_shot"] = perShot(sum(st.durs["frame.records"]))
	r.metrics["decoder.decode_us_per_shot"] = perShot(sum(st.durs["decoder.decode"]))
	r.metrics["noise.estimate_self_us_per_shot"] = perShot(st.self["noise.estimate"])
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func durSeconds(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e9
	}
	return out
}

// oracle checks the first 64-shot batch of the frame sampler against the
// tableau engine (tiscc.RunProgramNoisy) record for record.
func oracle(pt *point, seed int64) error {
	b := pt.sim.NewBatch()
	b.Run(0, 64, seed)
	for lane := 0; lane < 64; lane++ {
		want := tiscc.RunProgramNoisy(pt.prog, pt.model, orqcs.ShotSeed(seed, lane)).Records()
		if got := b.Records(lane); !maps.Equal(got, want) {
			return fmt.Errorf("oracle: shot %d: frame records differ from the tableau engine's", lane)
		}
	}
	return nil
}
