// Package point assembles and runs one decoded logical-error estimate: a
// (workload, d, rounds, model, p) point of the paper's Sec 4 verification
// workflow. It compiles the workload's experiment, flattens the noise model
// to a fault schedule, extracts detectors and compiles the union-find
// decoding graph when asked, and samples on the Pauli-frame engine through
// noise.EstimateLogicalError.
//
// Every entry point builds its points here: orqcs -memory/-surgery, the
// tiscc-bench noise sweeps, the HTTP service and the tiscc facade. What
// differs per caller stays with the caller: round defaulting (rounds are
// taken as given), stdout text, and manifest labels and config.
package point

import (
	"fmt"
	"io"
	"os"
	"time"

	"tiscc/internal/decoder"
	"tiscc/internal/diag"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
	"tiscc/internal/verify"
)

// Workload and noise-model names.
const (
	WorkloadMemory  = "memory"
	WorkloadSurgery = "surgery"

	ModelDepolarizing = "depolarizing"
	ModelTable5       = "table5"
)

// Experiment is one compiled workload: the lowered program, the outcome
// formula judged per shot and its noiseless reference, and the detector
// structure, extracted on first use.
type Experiment struct {
	Prog      *orqcs.Program
	Outcome   expr.Expr
	Reference bool

	spans   *telemetry.Spans
	extract func() (*decoder.Detectors, error)
	dets    *decoder.Detectors
}

// Compile compiles workload at distance d under the "compile" span of sp.
// For memory, rounds counts the error-correction rounds; for surgery (a
// two-patch Z̄Z̄ merge/split cycle with one pre- and one post-merge round),
// the merged-phase rounds. fuse applies the rotation-fusion peephole, which
// preserves shot outcomes bit for bit. sp also times the experiment's later
// stages (Detectors, Schedule, Graph); nil leaves every stage untimed.
func Compile(sp *telemetry.Spans, workload string, d, rounds int, fuse bool) (*Experiment, error) {
	defer start(sp, "compile")()
	e := &Experiment{spans: sp}
	switch workload {
	case WorkloadMemory:
		mem, err := verify.MemoryExperiment(d, rounds, pauli.Z)
		if err != nil {
			return nil, err
		}
		if fuse {
			mem.Prog = mem.Prog.FuseRotations()
		}
		e.Prog, e.Outcome, e.Reference = mem.Prog, mem.Outcome, mem.Reference
		e.extract = func() (*decoder.Detectors, error) { return decoder.Extract(mem) }
	case WorkloadSurgery:
		s, err := verify.SurgeryExperiment(d, 1, rounds, 1, pauli.Z)
		if err != nil {
			return nil, err
		}
		if fuse {
			s.Prog = s.Prog.FuseRotations()
		}
		e.Prog, e.Outcome, e.Reference = s.Prog, s.Outcome, s.Reference
		e.extract = func() (*decoder.Detectors, error) { return decoder.ExtractSurgery(s) }
	default:
		return nil, fmt.Errorf("point: unknown workload %q (want %s or %s)", workload, WorkloadMemory, WorkloadSurgery)
	}
	return e, nil
}

// Detectors returns the experiment's detector structure, extracting it on
// first use (under a "compile" span), so raw-readout runs never pay for
// extraction.
func (e *Experiment) Detectors() (*decoder.Detectors, error) {
	if e.dets == nil {
		end := start(e.spans, "compile")
		dets, err := e.extract()
		end()
		if err != nil {
			return nil, err
		}
		e.dets = dets
	}
	return e.dets, nil
}

// Schedule flattens a valid noise model into the fault schedule of the
// experiment's program, under the "noise-compile" span.
func (e *Experiment) Schedule(m noise.Model) *noise.Schedule {
	defer start(e.spans, "noise-compile")()
	return noise.Compile(m, e.Prog)
}

// Graph compiles the union-find decoding graph of the experiment under
// sched (extracting the detectors if nothing has yet), under the
// "decoder-compile" span.
func (e *Experiment) Graph(sched *noise.Schedule) (*decoder.Graph, error) {
	dets, err := e.Detectors()
	if err != nil {
		return nil, err
	}
	defer start(e.spans, "decoder-compile")()
	return decoder.CompileGraph(dets, sched)
}

// Model returns the validated noise model called name: the uniform
// depolarizing model at physical error rate p, or the paper's Table 5 model
// on the default hardware (p unused).
func Model(name string, p float64) (noise.Model, error) {
	var m noise.Model
	switch name {
	case ModelDepolarizing:
		m = noise.Depolarizing(p)
	case ModelTable5:
		m = noise.PaperTable5(hardware.Default())
	default:
		return noise.Model{}, fmt.Errorf("point: unknown noise model %q (want %s or %s)", name, ModelDepolarizing, ModelTable5)
	}
	if err := m.Validate(); err != nil {
		return noise.Model{}, err
	}
	return m, nil
}

// Run is one estimate over a compiled fault schedule.
type Run struct {
	Sched     *noise.Schedule
	Outcome   expr.Expr
	Reference bool
	// Graph, when non-nil, union-find-decodes every shot; nil judges the raw
	// outcome-formula readout (or the caller's Options.Decoder).
	Graph *decoder.Graph
	// Options carries the shot count, seed, workers and any estimator hooks.
	// A nil Sampler becomes the Pauli-frame sampler on Clifford programs;
	// Graph, Diag/Calibrate and Progress replace Decoder, Observer and
	// Options.Progress.
	Options noise.Options
	// Diag attaches a diag.Collector and reports its per-channel error-budget
	// attribution; Calibrate also reports the per-detector calibration
	// residuals (it needs Graph).
	Diag, Calibrate bool
	// Progress, when non-nil, receives the run's NDJSON progress events
	// (start, batch, done) under Label.
	Progress io.Writer
	Label    string
	// Spans times the estimator under its "estimate" span; nil leaves it
	// untimed.
	Spans *telemetry.Spans
}

// Result is one finished estimate.
type Result struct {
	noise.Result
	Attribution *diag.AttributionReport // nil unless Diag or Calibrate
	Calibration *diag.DetectorReport    // nil unless Calibrate

	run  Run
	sim  *frame.Sim // nil when the caller supplied the Sampler or the program is not Clifford
	wall float64    // seconds spent in the estimator
}

// Estimate runs the estimate. Results are deterministic in (schedule,
// outcome, Options) for every worker count; diagnostics and progress replay
// fired faults from shot seeds and touch no RNG, so they never change them.
func (r Run) Estimate() (Result, error) {
	opt, sim, err := withFrameSampler(r.Sched, r.Options)
	if err != nil {
		return Result{}, err
	}
	if r.Graph != nil {
		opt.Decoder = r.Graph
	}
	var coll *diag.Collector
	if r.Diag || r.Calibrate {
		var dets *decoder.Detectors
		if r.Graph != nil {
			dets = r.Graph.Detectors()
		}
		coll = diag.NewCollector(r.Sched, dets, opt.Seed)
		opt.Observer = coll
	}
	var pw *diag.ProgressWriter
	if r.Progress != nil {
		pw = diag.NewProgressWriter(r.Progress, r.Label, opt.Shots)
		opt.Progress = pw.Batch
	}
	end := start(r.Spans, "estimate")
	//tiscc:nondeterministic estimator wall time feeds the manifest's wall_seconds only, never records or results
	t0 := time.Now()
	res, err := noise.EstimateLogicalError(r.Sched, r.Outcome, r.Reference, opt)
	//tiscc:nondeterministic estimator wall time feeds the manifest's wall_seconds only, never records or results
	out := Result{Result: res, run: r, sim: sim, wall: time.Since(t0).Seconds()}
	end()
	if err != nil {
		return Result{}, err
	}
	if pw != nil {
		pw.Done(res)
		if err := pw.Err(); err != nil {
			return Result{}, fmt.Errorf("progress stream: %w", err)
		}
	}
	if coll != nil {
		out.Attribution = coll.Attribution()
		if r.Calibrate {
			if out.Calibration, err = coll.DetectorReport(); err != nil {
				return Result{}, err
			}
		}
	}
	return out, nil
}

// Point is the run-manifest record of the estimate under labels: the result
// fields, the program, noise, sampler and decoder metric snapshots, and the
// diagnostics sections the run collected.
func (r Result) Point(labels map[string]any) telemetry.Point {
	metrics := map[string]*telemetry.Snapshot{
		"program": r.run.Sched.Program().Metrics(),
		"noise":   r.run.Sched.Metrics(),
	}
	if r.sim != nil {
		metrics["sampler"] = r.sim.Metrics()
	}
	if r.run.Graph != nil {
		metrics["decoder"] = r.run.Graph.Metrics()
	}
	pt := telemetry.Point{
		Labels: labels,
		Result: map[string]any{
			"shots": r.Shots, "requested": r.Requested, "errors": r.Errors,
			"p_l": r.Rate, "stderr": r.StdErr,
			"wilson_low": r.WilsonLow, "wilson_high": r.WilsonHigh,
			"half_width": r.HalfWidth, "early_stop_batch": r.EarlyStopBatch,
			"wall_seconds": r.wall,
		},
		Metrics: metrics,
	}
	if r.Attribution != nil {
		pt.Attribution = r.Attribution
		metrics["error_budget"] = r.Attribution.Snapshot()
	}
	if r.Calibration != nil {
		pt.Detectors = r.Calibration
	}
	return pt
}

// withFrameSampler makes Clifford programs sample on the Pauli-frame engine
// (records bit-identical to the tableau pool, at a fraction of the cost)
// unless the caller supplied a Sampler; non-Clifford programs keep the
// estimator's tableau pool. The returned frame sampler is nil when none was
// attached.
func withFrameSampler(s *noise.Schedule, opt noise.Options) (noise.Options, *frame.Sim, error) {
	if opt.Sampler != nil || !s.Program().Clifford() {
		return opt, nil, nil
	}
	sim, err := frame.New(s.Program(), s)
	if err != nil {
		return opt, nil, err
	}
	opt.Sampler = sim
	return opt, sim, nil
}

// start opens the named stage span of sp; a nil sp times nothing.
func start(sp *telemetry.Spans, name string) func() {
	if sp == nil {
		return func() {}
	}
	return sp.Start(name)
}

// ProgressFlag is the CLIs' -progress destination: a boolean-style flag
// (bare -progress streams to stderr) that also accepts -progress=FILE.
type ProgressFlag struct {
	Dest string // "" disabled, "stderr", or a file path
}

func (p *ProgressFlag) String() string { return p.Dest }

// IsBoolFlag lets the flag package accept a bare -progress.
func (p *ProgressFlag) IsBoolFlag() bool { return true }

// Set parses one -progress value.
func (p *ProgressFlag) Set(v string) error {
	switch v {
	case "", "true":
		p.Dest = "stderr"
	case "false", "0":
		p.Dest = ""
	default:
		p.Dest = v
	}
	return nil
}

// Open returns the progress stream (nil when disabled) and the function
// that closes it.
func (p *ProgressFlag) Open() (io.Writer, func(), error) {
	switch p.Dest {
	case "":
		return nil, func() {}, nil
	case "stderr":
		return os.Stderr, func() {}, nil
	}
	f, err := os.Create(p.Dest)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}
