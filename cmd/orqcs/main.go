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
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"tiscc/internal/circuit"
	"tiscc/internal/decoder"
	"tiscc/internal/frame"
	"tiscc/internal/grid"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/point"
	"tiscc/internal/telemetry"
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
	var progress point.ProgressFlag
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
	if progress.Dest != "" && (!exp || *noiseP == 0) {
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
		diag: *diagOut, demCalib: *calOut, progress: progress}
	if *memory != "" {
		runExperiment(point.WorkloadMemory, *memory, *noiseP, *decode, *demFile, eo, *shots, *seed, *workers, *fuse)
		return
	}
	if *surgery != "" {
		runExperiment(point.WorkloadSurgery, *surgery, *noiseP, *decode, *demFile, eo, *shots, *seed, *workers, *fuse)
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
		m, err := point.Model(point.ModelDepolarizing, *noiseP)
		if err != nil {
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
// (≥ 2) and the round count non-negative — at least 1 for -surgery, whose
// merge needs a merged round — so bad specs exit with a usage error instead
// of a failure deep in the compiler.
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
	if flagName == point.WorkloadSurgery && rounds < 1 {
		return 0, 0, fmt.Errorf("bad -%s %q: merged rounds must be ≥ 1, got %d", flagName, spec, rounds)
	}
	return d, rounds, nil
}

// estOpts bundles the estimation pipeline's observability outputs.
type estOpts struct {
	metricsFile string             // run manifest destination ("" = none)
	promFile    string             // Prometheus text exposition destination ("" = none)
	diag        bool               // print + record per-channel error-budget attribution
	demCalib    bool               // print + record per-detector calibration residuals
	progress    point.ProgressFlag // NDJSON progress destination
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

// experimentText is each experiment flag's stdout wording: the compile
// header (formatted with d and rounds) and the raw-readout label.
var experimentText = map[string]struct{ header, raw string }{
	point.WorkloadMemory:  {"memory experiment d=%d rounds=%d", "raw readout"},
	point.WorkloadSurgery: {"surgery experiment d=%d merged-rounds=%d", "raw joint-parity readout"},
}

// runExperiment compiles the -memory or -surgery experiment (workload) from
// its d[:rounds] spec, writes its detector error model if requested, then
// estimates the (optionally union-find-decoded) logical error rate under
// depolarizing noise, and writes the run manifest / Prometheus exposition /
// diagnostics reports the estimation options request. For surgery the
// estimated quantity is the joint parity (final Z̄Z̄ readout against the
// merge outcome).
func runExperiment(workload, spec string, noiseP float64, decode bool, demFile string, eo estOpts, shots int, seed int64, workers int, fuse bool) {
	d, rounds, err := parseDSpec(workload, spec)
	if err != nil {
		usageErr(err.Error())
	}
	sp := telemetry.NewSpans()
	e, err := point.Compile(sp, workload, d, rounds, fuse)
	if err != nil {
		fatal(err)
	}
	text := experimentText[workload]
	fmt.Printf(text.header+": %d qubits, %d instructions\n", d, rounds, e.Prog.NumQubits(), e.Prog.NumInstrs())
	m, err := point.Model(point.ModelDepolarizing, noiseP)
	if err != nil {
		fatal(err)
	}
	sched := e.Schedule(m)
	if demFile != "" {
		if noiseP == 0 {
			fmt.Fprintln(os.Stderr, "orqcs: -dem with -noise 0 writes a detector error model with no error mechanisms")
		}
		dets, err := e.Detectors()
		if err != nil {
			fatal(err)
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
	labels := map[string]any{"workload": workload, "d": d, "rounds": rounds}
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
			Labels: labels,
			Metrics: map[string]*telemetry.Snapshot{
				"program": e.Prog.Metrics(),
				"noise":   sched.Metrics(),
			},
		})
		return
	}
	run := point.Run{
		Sched: sched, Outcome: e.Outcome, Reference: e.Reference,
		Options: noise.Options{Shots: shots, Seed: seed, Workers: workers},
		Diag:    eo.diag, Calibrate: eo.demCalib,
		Label: fmt.Sprintf("%s p=%g", workload, noiseP),
		Spans: sp,
	}
	progW, closeProg, err := eo.progress.Open()
	if err != nil {
		fatal(err)
	}
	defer closeProg()
	run.Progress = progW
	label := text.raw
	if decode {
		if run.Graph, err = e.Graph(sched); err != nil {
			fatal(err)
		}
		label = "union-find decoded"
	}
	est, err := run.Estimate()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("depolarizing p=%g (%s): %v\n", noiseP, label, est.Result)
	if eo.diag {
		fmt.Print(est.Attribution.Table())
	}
	if eo.demCalib {
		fmt.Print(est.Calibration.Table())
	}
	labels["decoded"] = decode
	labels["p"] = noiseP
	writeManifest(est.Point(labels))
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
