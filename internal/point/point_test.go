package point

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/telemetry"
)

// TestWithFrameSampler pins the sampler choice every entry point shares: a
// Clifford program gets a Pauli-frame sampler, a non-Clifford one keeps the
// tableau pool (nil Sampler), and a caller-supplied Sampler is left alone.
func TestWithFrameSampler(t *testing.T) {
	e, err := Compile(nil, WorkloadMemory, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cliff := e.Schedule(noise.Depolarizing(1e-3))
	opt, sim, err := withFrameSampler(cliff, noise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := opt.Sampler.(*frame.Sim); !ok || got != sim {
		t.Fatalf("Clifford program: Sampler %T, want the returned *frame.Sim", opt.Sampler)
	}
	if opt, sim, _ = withFrameSampler(cliff, noise.Options{Sampler: sim}); opt.Sampler == nil || sim != nil {
		t.Fatal("caller-supplied Sampler was replaced")
	}

	c, err := circuit.Parse("Prepare_Z 0.2 t=0 d=10000\nY_pi/4 0.2 t=10000 d=10000\nZ_pi/8 0.2 t=20000 d=3000\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	opt, sim, err = withFrameSampler(noise.Compile(noise.Depolarizing(1e-3), prog), noise.Options{})
	if err != nil || opt.Sampler != nil || sim != nil {
		t.Fatalf("non-Clifford program: Sampler %v, err %v; want the tableau pool", opt.Sampler, err)
	}
}

func TestCompile(t *testing.T) {
	for _, workload := range []string{WorkloadMemory, WorkloadSurgery} {
		e, err := Compile(nil, workload, 3, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if e.dets != nil {
			t.Fatalf("%s: detectors extracted before first use", workload)
		}
		dets, err := e.Detectors()
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := e.Detectors(); again != dets || dets.NumDetectors() == 0 {
			t.Fatalf("%s: detectors not memoized or empty", workload)
		}
		fused, err := Compile(nil, workload, 3, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		if fused.Prog.NumInstrs() >= e.Prog.NumInstrs() {
			t.Fatalf("%s: fusion kept %d of %d instructions", workload, fused.Prog.NumInstrs(), e.Prog.NumInstrs())
		}
		fdets, err := fused.Detectors()
		if err != nil {
			t.Fatal(err)
		}
		if fdets.NumDetectors() != dets.NumDetectors() {
			t.Fatalf("%s: fused experiment has %d detectors, want %d", workload, fdets.NumDetectors(), dets.NumDetectors())
		}
	}
	if _, err := Compile(nil, "idle", 3, 3, false); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload: err %v", err)
	}
	if _, err := Compile(nil, WorkloadSurgery, 3, 0, false); err == nil {
		t.Fatal("surgery with no merged round compiled")
	}
	if _, err := Compile(nil, WorkloadMemory, 1, 3, false); err == nil {
		t.Fatal("distance 1 compiled")
	}
}

func TestModel(t *testing.T) {
	m, err := Model(ModelDepolarizing, 1e-3)
	if err != nil || m.P1 != 1e-3 {
		t.Fatalf("depolarizing: %+v, %v", m, err)
	}
	if m, err = Model(ModelTable5, 0.5); err != nil || m.Name == "" {
		t.Fatalf("table5: %+v, %v", m, err)
	}
	if _, err := Model("bitflip", 1e-3); err == nil || !strings.Contains(err.Error(), "unknown noise model") {
		t.Fatalf("unknown model: err %v", err)
	}
	if _, err := Model(ModelDepolarizing, 1.5); err == nil {
		t.Fatal("depolarizing p=1.5 validated")
	}
}

// TestEstimate checks a fully instrumented decoded run against the bare
// estimator on the same frame sampler and decoding graph: equal results,
// the stage spans, the diagnostics reports, the progress stream and a
// complete manifest point.
func TestEstimate(t *testing.T) {
	sp := telemetry.NewSpans()
	e, err := Compile(sp, WorkloadMemory, 3, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Model(ModelDepolarizing, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	sched := e.Schedule(m)
	g, err := e.Graph(sched)
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	opt := noise.Options{Shots: 300, Seed: 4, Workers: 2}
	est, err := Run{Sched: sched, Outcome: e.Outcome, Reference: e.Reference, Graph: g,
		Options: opt, Diag: true, Calibrate: true, Progress: &progress, Label: "d3", Spans: sp}.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range sp.Spans() {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "compile,noise-compile,compile,decoder-compile,estimate" {
		t.Fatalf("spans %s", got)
	}
	if est.Attribution == nil || est.Calibration == nil || est.Attribution.Failures != uint64(est.Errors) {
		t.Fatalf("diagnostics missing or inconsistent: %+v", est.Attribution)
	}
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) < 3 || !strings.Contains(lines[0], `"event":"start"`) ||
		!strings.Contains(lines[len(lines)-1], `"event":"done"`) || !strings.Contains(lines[0], `"label":"d3"`) {
		t.Fatalf("progress stream:\n%s", progress.String())
	}
	pt := est.Point(map[string]any{"d": 3})
	for _, comp := range []string{"program", "noise", "sampler", "decoder", "error_budget"} {
		if pt.Metrics[comp] == nil {
			t.Fatalf("point metrics missing %q", comp)
		}
	}
	if pt.Result["errors"] != est.Errors || pt.Attribution == nil || pt.Detectors == nil || pt.Labels["d"] != 3 {
		t.Fatalf("point %+v", pt)
	}
	if got := pt.Metrics["decoder"].Counter("shots"); got != 300 {
		t.Fatalf("decoder counted %d shots, want 300", got)
	}
	sim, err := frame.New(e.Prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	bare := opt
	bare.Decoder, bare.Sampler = g, sim
	want, err := noise.EstimateLogicalError(sched, e.Outcome, e.Reference, bare)
	if err != nil {
		t.Fatal(err)
	}
	if est.Result != want {
		t.Fatalf("instrumented run %+v, bare estimator %+v", est.Result, want)
	}

	// A raw run with a caller-supplied sampler keeps it and reports no
	// sampler snapshot of its own.
	raw, err := Run{Sched: sched, Outcome: e.Outcome, Reference: e.Reference,
		Options: noise.Options{Shots: 64, Seed: 4, Sampler: sim}}.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if pt := raw.Point(nil); pt.Metrics["sampler"] != nil || pt.Metrics["decoder"] != nil || pt.Attribution != nil {
		t.Fatalf("raw point %+v", pt)
	}
	if _, err := (Run{Sched: sched, Outcome: e.Outcome, Options: noise.Options{Shots: -1}}).Estimate(); err == nil {
		t.Fatal("negative shot count accepted")
	}
}

func TestProgressFlag(t *testing.T) {
	var p ProgressFlag
	for _, tc := range []struct{ in, want string }{
		{"", "stderr"}, {"false", ""}, {"true", "stderr"}, {"0", ""}, {"x.ndjson", "x.ndjson"},
	} {
		if err := p.Set(tc.in); err != nil || p.Dest != tc.want || p.String() != tc.want {
			t.Fatalf("Set(%q): Dest %q, want %q", tc.in, p.Dest, tc.want)
		}
	}
	if !p.IsBoolFlag() {
		t.Fatal("-progress must accept the bare form")
	}
	for _, dest := range []string{"", "stderr", filepath.Join(t.TempDir(), "p.ndjson")} {
		p.Dest = dest
		w, closeFn, err := p.Open()
		if err != nil || (w == nil) != (dest == "") {
			t.Fatalf("Open(%q): writer %v, err %v", dest, w, err)
		}
		closeFn()
	}
	p.Dest = filepath.Join(t.TempDir(), "missing", "p.ndjson")
	if _, _, err := p.Open(); err == nil {
		t.Fatal("Open into a missing directory succeeded")
	}
}
