// Command orqcs runs the quasi-Clifford verification simulator on a TISCC
// circuit file, mirroring how the Oak Ridge Quasi-Clifford Simulator
// consumes TISCC output in the paper (Sec 4): it parses the native-gate
// instruction stream, interprets it as unitaries on a stabilizer state
// while tracking ion movement, and reports measurement records and
// requested Pauli-string expectation values.
//
// Usage:
//
//	orqcs -circuit file.tiscc [-seed 1] [-shots 1] [-workers 0] [-expect "Z@0.2,X@4.6"] [-noise p] [-fuse]
//	orqcs -memory d[:rounds] [-noise p] [-decode] [-shots N] [-dem file.dem]
//	orqcs -surgery d[:rounds] [-noise p] [-decode] [-shots N] [-dem file.dem]
//
// The circuit is compiled once into a lowered program; multi-shot estimates
// then run on a deterministic parallel worker pool (results depend only on
// the seed, never on the worker count). With -noise p, shots run under a
// uniform circuit-level depolarizing model at physical error rate p, with
// faults injected per instruction from a compiled fault schedule. -fuse
// applies the single-qubit rotation fusion peephole before simulating.
//
// -memory runs a compiled distance-d logical memory experiment instead of a
// circuit file: with -noise p it estimates the logical error rate, with
// -decode each shot's syndrome history is union-find decoded first, and
// -dem writes the experiment's Stim-compatible detector error model so
// external decoders (PyMatching et al.) can consume it.
//
// -surgery runs a distance-d two-patch ZZ-merge/split cycle instead: the
// estimated quantity is the joint-parity error (final Z̄Z̄ readout against
// the merge outcome), with detectors stitched across the merge and split
// boundaries; rounds counts the merged-phase rounds (default d).
//
// Multi-shot runs on Clifford programs sample on the batch Pauli-frame
// engine (bit-identical records to the tableaus, O(faults) per shot);
// non-Clifford circuits fall back to the bit-sliced tableau engine.
//
// -metrics (with -memory/-surgery) writes the run's structured manifest:
// provenance, stage spans and the estimation point's program, noise, sampler
// and decoder metric snapshots; -prom writes the same metrics in Prometheus
// text exposition format. -diag prints per-channel error-budget attribution,
// -dem-calib the per-detector observed-vs-DEM-predicted calibration
// residuals, and -progress streams NDJSON batch progress events. All
// observability paths replay fired faults from shot seeds and touch no RNG,
// so the estimate is bit-identical with and without them.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tiscc/internal/circuit"
	"tiscc/internal/decoder"
	"tiscc/internal/diag"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/grid"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
	"tiscc/internal/verify"
)

func main() {
	var (
		file    = flag.String("circuit", "", "circuit file (TISCC textual form)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		shots   = flag.Int("shots", 1, "Monte-Carlo shots (for non-Clifford circuits)")
		workers = flag.Int("workers", 0, "parallel shot workers (0 = GOMAXPROCS)")
		expect  = flag.String("expect", "", "comma-separated Pauli ops, e.g. Z@0.2,X@4.6")
		quiet   = flag.Bool("quiet", false, "suppress the record table")
		noiseP  = flag.Float64("noise", 0, "uniform depolarizing physical error rate (0 = noiseless)")
		fuse    = flag.Bool("fuse", false, "fuse adjacent single-qubit Clifford rotations before simulating")
		memory  = flag.String("memory", "", "run a memory experiment instead of a circuit file: d or d:rounds")
		surgery = flag.String("surgery", "", "run a two-patch ZZ-merge/split cycle instead of a circuit file: d or d:rounds")
		decode  = flag.Bool("decode", false, "with -memory/-surgery -noise: union-find-decode each shot's syndrome history")
		demFile = flag.String("dem", "", "with -memory/-surgery: write the Stim-compatible detector error model to this file")
		metOut  = flag.String("metrics", "", "with -memory/-surgery: write the structured run manifest (provenance, spans, pipeline metrics) to this JSON file")
		promOut = flag.String("prom", "", "with -memory/-surgery: write the run metrics in Prometheus text exposition format to this file")
		diagOut = flag.Bool("diag", false, "with a noisy -memory/-surgery run: print the per-channel error-budget attribution table (and record it in the manifest)")
		calOut  = flag.Bool("dem-calib", false, "with a decoded noisy -memory/-surgery run: print per-detector observed vs DEM-predicted fire rates with calibration residuals")
	)
	var progress progressFlag
	flag.Var(&progress, "progress", "with a noisy -memory/-surgery run: stream NDJSON batch progress events (bare -progress → stderr, -progress=FILE → file)")
	flag.Parse()
	if *memory != "" && *surgery != "" {
		usageErr("-memory and -surgery are mutually exclusive")
	}
	exp := *memory != "" || *surgery != ""
	if *metOut != "" && !exp {
		usageErr("-metrics requires -memory or -surgery")
	}
	if *promOut != "" && !exp {
		usageErr("-prom requires -memory or -surgery")
	}
	if *diagOut && (!exp || *noiseP == 0) {
		usageErr("-diag requires -memory or -surgery with -noise")
	}
	if *calOut && (!exp || *noiseP == 0 || !*decode) {
		usageErr("-dem-calib requires a decoded noisy experiment (-memory or -surgery with -noise and -decode)")
	}
	if progress.dest != "" && (!exp || *noiseP == 0) {
		usageErr("-progress requires -memory or -surgery with -noise")
	}
	// Validate every numeric flag up front: invalid inputs must exit with a
	// usage error, never reach an internal panic ("grid: size must be
	// positive" and friends are for programming errors, not typos).
	if err := validateProb("-noise", *noiseP); err != nil {
		usageErr(err.Error())
	}
	if err := validateShots(*shots); err != nil {
		usageErr(err.Error())
	}
	if *workers < 0 {
		usageErr(fmt.Sprintf("-workers must be ≥ 0 (0 = GOMAXPROCS), got %d", *workers))
	}
	eo := estOpts{metricsFile: *metOut, promFile: *promOut,
		diag: *diagOut, demCalib: *calOut, progress: progress.dest}
	if *memory != "" {
		runMemory(*memory, *noiseP, *decode, *demFile, eo, *shots, *seed, *workers, *fuse)
		return
	}
	if *surgery != "" {
		runSurgery(*surgery, *noiseP, *decode, *demFile, eo, *shots, *seed, *workers, *fuse)
		return
	}
	if *file == "" {
		usageErr("-circuit, -memory or -surgery is required")
	}
	text, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	circ, err := circuit.Parse(string(text))
	if err != nil {
		fatal(err)
	}
	op, err := parseExpect(*expect)
	if err != nil {
		fatal(err)
	}

	prog, err := orqcs.Compile(circ)
	if err != nil {
		fatal(err)
	}
	if *fuse {
		before := prog.NumInstrs()
		prog = prog.FuseRotations()
		fmt.Fprintf(os.Stderr, "orqcs: rotation fusion %d → %d instructions\n", before, prog.NumInstrs())
	}
	var sched *noise.Schedule
	if *noiseP != 0 {
		m := noise.Depolarizing(*noiseP)
		if err := m.Validate(); err != nil {
			fatal(err)
		}
		sched = noise.Compile(m, prog)
	}

	if *shots > 1 && len(op) > 0 {
		mean, stderr, err := estimateOp(prog, sched, op, *shots, *seed, *workers)
		if err != nil {
			fatal(err)
		}
		label := ""
		if sched != nil {
			label = fmt.Sprintf(", depolarizing p=%g over %d fault sites", *noiseP, sched.NumFaultSites())
		}
		fmt.Printf("expectation %s = %.6f ± %.6f (%d shots, %d T gates%s)\n",
			*expect, mean, stderr, *shots, prog.NumTGates(), label)
		return
	}

	eng := orqcs.NewFromProgram(prog)
	if sched != nil {
		sched.RunShot(eng, *seed)
	} else {
		eng.RunShot(*seed)
	}
	if !*quiet {
		var ids []int32
		for id := range eng.Records() {
			if id >= 0 {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			v := 0
			if eng.Records()[id] {
				v = 1
			}
			fmt.Printf("m%d = %d\n", id, v)
		}
	}
	if len(op) > 0 {
		v, err := eng.Expectation(op)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("expectation %s = %+g\n", *expect, v)
	}
}

// parseDSpec parses and validates a d or d:rounds experiment spec (rounds
// defaults to d): the distance must be a code distance the compiler accepts
// (≥ 2) and the round count non-negative, so bad specs exit with a usage
// error instead of a grid-construction panic deep in the compiler.
func parseDSpec(flagName, spec string) (d, rounds int, err error) {
	parts := strings.SplitN(spec, ":", 2)
	d, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad -%s %q: %w", flagName, spec, err)
	}
	rounds = d
	if len(parts) == 2 {
		if rounds, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
			return 0, 0, fmt.Errorf("bad -%s %q: %w", flagName, spec, err)
		}
	}
	if d < 2 {
		return 0, 0, fmt.Errorf("bad -%s %q: distance must be ≥ 2, got %d", flagName, spec, d)
	}
	if rounds < 0 {
		return 0, 0, fmt.Errorf("bad -%s %q: rounds must be ≥ 0, got %d", flagName, spec, rounds)
	}
	return d, rounds, nil
}

// estOpts bundles the estimation pipeline's observability outputs.
type estOpts struct {
	metricsFile string // run manifest destination ("" = none)
	promFile    string // Prometheus text exposition destination ("" = none)
	diag        bool   // print + record per-channel error-budget attribution
	demCalib    bool   // print + record per-detector calibration residuals
	progress    string // NDJSON progress destination: "", "stderr" or a path
}

// progressFlag is the -progress destination: a boolean-style flag (bare
// -progress streams to stderr) that also accepts -progress=FILE.
type progressFlag struct {
	dest string // "" disabled, "stderr", or a file path
}

func (p *progressFlag) String() string { return p.dest }

func (p *progressFlag) IsBoolFlag() bool { return true }

func (p *progressFlag) Set(v string) error {
	switch v {
	case "", "true":
		p.dest = "stderr"
	case "false", "0":
		p.dest = ""
	default:
		p.dest = v
	}
	return nil
}

// estimateOp estimates one Pauli operator over a multi-shot run. Clifford
// programs run on the Pauli-frame engine (bit-identical to the tableaus,
// orders of magnitude faster on noisy shots); non-Clifford programs need the
// tableaus' quasi-probability T branches and fall back to the bit-sliced
// engine.
func estimateOp(prog *orqcs.Program, sched *noise.Schedule, op orqcs.SitePauli, shots int, seed int64, workers int) (mean, stderr float64, err error) {
	if prog.Clifford() {
		sim, err := frame.New(prog, sched)
		if err != nil {
			return 0, 0, err
		}
		return sim.EstimateBatch(op, shots, seed, workers)
	}
	fmt.Fprintf(os.Stderr, "orqcs: %d T gates: falling back to the bit-sliced tableau engine\n", prog.NumTGates())
	if sched != nil {
		means, stderrs, err := sched.EstimateMany([]orqcs.SitePauli{op}, shots, seed, workers)
		if err != nil {
			return 0, 0, err
		}
		return means[0], stderrs[0], nil
	}
	return orqcs.EstimateBatch(prog, op, shots, seed, workers)
}

// validateProb checks a probability flag lies in [0, 1].
func validateProb(name string, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%s must be a probability in [0, 1], got %v", name, p)
	}
	return nil
}

// validateShots checks the Monte-Carlo shot count is positive.
func validateShots(shots int) error {
	if shots < 1 {
		return fmt.Errorf("-shots must be ≥ 1, got %d", shots)
	}
	return nil
}

// usageErr prints a usage error and exits with the conventional status 2.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "orqcs:", msg)
	os.Exit(2)
}

// experiment is what the shared -memory/-surgery estimation pipeline needs
// from a compiled workload: the lowered program, the outcome formula judged
// per shot, and the workload-specific detector extraction.
type experiment struct {
	prog      *orqcs.Program
	outcome   expr.Expr
	reference bool
	extract   func() (*decoder.Detectors, error)
	rawLabel  string
	labels    map[string]any   // manifest point coordinates (workload, d, rounds)
	spans     *telemetry.Spans // stage spans, started before compilation
}

// runMemory compiles a distance-d memory experiment and hands it to the
// shared estimation pipeline.
func runMemory(spec string, noiseP float64, decode bool, demFile string, eo estOpts, shots int, seed int64, workers int, fuse bool) {
	d, rounds, err := parseDSpec("memory", spec)
	if err != nil {
		usageErr(err.Error())
	}
	sp := telemetry.NewSpans()
	endCompile := sp.Start("compile")
	mem, err := verify.MemoryExperiment(d, rounds, pauli.Z)
	if err != nil {
		fatal(err)
	}
	if fuse {
		// Fusion preserves shot outcomes bit-for-bit, so the experiment's
		// outcome formula and reference stay valid on the fused program.
		mem.Prog = mem.Prog.FuseRotations()
	}
	endCompile()
	fmt.Printf("memory experiment d=%d rounds=%d: %d qubits, %d instructions\n",
		d, rounds, mem.Prog.NumQubits(), mem.Prog.NumInstrs())
	runExperiment(experiment{
		prog:      mem.Prog,
		outcome:   mem.Outcome,
		reference: mem.Reference,
		extract:   func() (*decoder.Detectors, error) { return decoder.Extract(mem) },
		rawLabel:  "raw readout",
		labels:    map[string]any{"workload": "memory", "d": d, "rounds": rounds},
		spans:     sp,
	}, noiseP, decode, demFile, eo, shots, seed, workers)
}

// runSurgery compiles a distance-d two-patch ZZ-merge/split cycle and hands
// it to the shared estimation pipeline; the estimated quantity is the joint
// parity (final Z̄Z̄ readout against the merge outcome).
func runSurgery(spec string, noiseP float64, decode bool, demFile string, eo estOpts, shots int, seed int64, workers int, fuse bool) {
	d, rounds, err := parseDSpec("surgery", spec)
	if err != nil {
		usageErr(err.Error())
	}
	sp := telemetry.NewSpans()
	endCompile := sp.Start("compile")
	s, err := verify.SurgeryExperiment(d, 1, rounds, 1, pauli.Z)
	if err != nil {
		fatal(err)
	}
	if fuse {
		s.Prog = s.Prog.FuseRotations()
	}
	endCompile()
	fmt.Printf("surgery experiment d=%d merged-rounds=%d: %d qubits, %d instructions\n",
		d, rounds, s.Prog.NumQubits(), s.Prog.NumInstrs())
	runExperiment(experiment{
		prog:      s.Prog,
		outcome:   s.Outcome,
		reference: s.Reference,
		extract:   func() (*decoder.Detectors, error) { return decoder.ExtractSurgery(s) },
		rawLabel:  "raw joint-parity readout",
		labels:    map[string]any{"workload": "surgery", "d": d, "rounds": rounds},
		spans:     sp,
	}, noiseP, decode, demFile, eo, shots, seed, workers)
}

// runExperiment is the common tail of -memory and -surgery: write the
// detector error model if requested, then estimate the (optionally
// union-find-decoded) logical error rate under depolarizing noise, and write
// the run manifest / Prometheus exposition / diagnostics reports the
// estimation options request.
func runExperiment(e experiment, noiseP float64, decode bool, demFile string, eo estOpts, shots int, seed int64, workers int) {
	sp := e.spans
	m := noise.Depolarizing(noiseP)
	if err := m.Validate(); err != nil {
		fatal(err)
	}
	endNoise := sp.Start("noise-compile")
	sched := noise.Compile(m, e.prog)
	endNoise()
	var dets *decoder.Detectors
	if demFile != "" || decode {
		var err error
		if dets, err = e.extract(); err != nil {
			fatal(err)
		}
	}
	if demFile != "" {
		if noiseP == 0 {
			fmt.Fprintln(os.Stderr, "orqcs: -dem with -noise 0 writes a detector error model with no error mechanisms")
		}
		f, err := os.Create(demFile)
		if err != nil {
			fatal(err)
		}
		if err := decoder.WriteDEM(f, dets, sched); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote detector error model (%d detectors, %d fault sites) to %s\n",
			dets.NumDetectors(), sched.NumFaultSites(), demFile)
	}
	writeManifest := func(pt telemetry.Point) {
		if eo.metricsFile == "" && eo.promFile == "" {
			return
		}
		man := telemetry.NewManifest("orqcs")
		man.Config = map[string]any{
			"noise": noiseP, "shots": shots, "seed": seed,
			"workers": workers, "decode": decode,
		}
		man.AddPoint(pt)
		man.Finish(sp)
		if eo.metricsFile != "" {
			if err := man.WriteFile(eo.metricsFile); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote run manifest to %s\n", eo.metricsFile)
		}
		if eo.promFile != "" {
			if err := man.WritePrometheusFile(eo.promFile, "tiscc"); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote Prometheus metrics to %s\n", eo.promFile)
		}
	}
	if noiseP == 0 {
		if decode || shots > 1 {
			fmt.Fprintln(os.Stderr, "orqcs: -noise 0: nothing to estimate (-decode/-shots ignored)")
		}
		// The manifest still records the compile-time pipeline state.
		writeManifest(telemetry.Point{
			Labels: e.labels,
			Metrics: map[string]*telemetry.Snapshot{
				"program": e.prog.Metrics(),
				"noise":   sched.Metrics(),
			},
		})
		return
	}
	opt := noise.Options{Shots: shots, Seed: seed, Workers: workers}
	var coll *diag.Collector
	if eo.diag || eo.demCalib {
		coll = diag.NewCollector(sched, dets, seed)
		opt.Observer = coll
	}
	var pw *diag.ProgressWriter
	if eo.progress != "" {
		progW := io.Writer(os.Stderr)
		if eo.progress != "stderr" {
			f, err := os.Create(eo.progress)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			progW = f
		}
		pw = diag.NewProgressWriter(progW,
			fmt.Sprintf("%s p=%g", e.labels["workload"], noiseP), shots)
		opt.Progress = pw.Batch
	}
	// The workloads are Clifford, so they always sample on the Pauli-frame
	// engine (bit-identical records to the tableaus); it is set explicitly so
	// its merged counters land in the manifest.
	sim, err := frame.New(e.prog, sched)
	if err != nil {
		fatal(err)
	}
	opt.Sampler = sim
	label := e.rawLabel
	var g *decoder.Graph
	if decode {
		endGraph := sp.Start("decoder-compile")
		var err error
		g, err = decoder.CompileGraph(dets, sched)
		endGraph()
		if err != nil {
			fatal(err)
		}
		opt.Decoder = g
		label = "union-find decoded"
	}
	endEst := sp.Start("estimate")
	t0 := time.Now()
	res, err := noise.EstimateLogicalError(sched, e.outcome, e.reference, opt)
	wall := time.Since(t0).Seconds()
	endEst()
	if err != nil {
		fatal(err)
	}
	if pw != nil {
		pw.Done(res)
		if perr := pw.Err(); perr != nil {
			fatal(fmt.Errorf("progress stream: %w", perr))
		}
	}
	fmt.Printf("depolarizing p=%g (%s): %v\n", noiseP, label, res)
	e.labels["decoded"] = decode
	e.labels["p"] = noiseP
	metrics := map[string]*telemetry.Snapshot{
		"program": e.prog.Metrics(),
		"noise":   sched.Metrics(),
		"sampler": sim.Metrics(),
	}
	if g != nil {
		metrics["decoder"] = g.Metrics()
	}
	point := telemetry.Point{
		Labels: e.labels,
		Result: map[string]any{
			"shots": res.Shots, "requested": res.Requested, "errors": res.Errors,
			"p_l": res.Rate, "stderr": res.StdErr,
			"wilson_low": res.WilsonLow, "wilson_high": res.WilsonHigh,
			"half_width": res.HalfWidth, "early_stop_batch": res.EarlyStopBatch,
			"wall_seconds": wall,
		},
		Metrics: metrics,
	}
	if coll != nil {
		att := coll.Attribution()
		point.Attribution = att
		metrics["error_budget"] = att.Snapshot()
		if eo.diag {
			fmt.Print(att.Table())
		}
		if eo.demCalib {
			dr, derr := coll.DetectorReport()
			if derr != nil {
				fatal(derr)
			}
			point.Detectors = dr
			fmt.Print(dr.Table())
		}
	}
	writeManifest(point)
}

func parseExpect(s string) (orqcs.SitePauli, error) {
	op := orqcs.SitePauli{}
	if s == "" {
		return op, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if len(part) < 3 || part[1] != '@' {
			return nil, fmt.Errorf("orqcs: bad operator %q (want P@r.c)", part)
		}
		var k pauli.Kind
		switch part[0] {
		case 'X':
			k = pauli.X
		case 'Y':
			k = pauli.Y
		case 'Z':
			k = pauli.Z
		default:
			return nil, fmt.Errorf("orqcs: bad Pauli %q", part[:1])
		}
		site, err := grid.ParseSite(part[2:])
		if err != nil {
			return nil, err
		}
		op[site] = k
	}
	return op, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "orqcs:", err)
	os.Exit(1)
}
