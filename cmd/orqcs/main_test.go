package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
)

func TestParseDSpec(t *testing.T) {
	good := []struct {
		spec      string
		d, rounds int
	}{
		{"3", 3, 3},
		{"5:2", 5, 2},
		{"2:0", 2, 0},
		{" 7 : 4 ", 7, 4},
	}
	for _, tc := range good {
		d, r, err := parseDSpec("memory", tc.spec)
		if err != nil {
			t.Fatalf("parseDSpec(%q): %v", tc.spec, err)
		}
		if d != tc.d || r != tc.rounds {
			t.Fatalf("parseDSpec(%q) = (%d, %d), want (%d, %d)", tc.spec, d, r, tc.d, tc.rounds)
		}
	}
	bad := []string{"", "abc", "3:xyz", "0", "1", "-3", "3:-2", "-1:4", "3:2:1x"}
	for _, spec := range bad {
		if _, _, err := parseDSpec("memory", spec); err == nil {
			t.Fatalf("parseDSpec(%q) accepted an invalid spec", spec)
		}
	}
	// A surgery cycle needs at least one merged round; memory may idle none.
	if d, r, err := parseDSpec("surgery", "3:1"); err != nil || d != 3 || r != 1 {
		t.Fatalf("parseDSpec(surgery, 3:1) = (%d, %d, %v)", d, r, err)
	}
	for _, spec := range []string{"3:0", "2:0", "3:-1"} {
		if _, _, err := parseDSpec("surgery", spec); err == nil {
			t.Fatalf("parseDSpec(surgery, %q) accepted a cycle without a merged round", spec)
		}
	}
}

func TestValidateProb(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1} {
		if err := validateProb("-noise", p); err != nil {
			t.Fatalf("validateProb(%v): %v", p, err)
		}
	}
	nan := 0.0
	nan /= nan
	for _, p := range []float64{-0.1, 1.0001, 15, nan} {
		if err := validateProb("-noise", p); err == nil {
			t.Fatalf("validateProb(%v) accepted an out-of-range probability", p)
		}
	}
}

func TestValidateShots(t *testing.T) {
	if err := validateShots(1); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, -5} {
		if err := validateShots(s); err == nil {
			t.Fatalf("validateShots(%d) accepted a non-positive count", s)
		}
	}
}

// compileText compiles a TISCC circuit given in textual form.
func compileText(t *testing.T, text string) *orqcs.Program {
	t.Helper()
	c, err := circuit.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestEstimateOpEngineChoice pins the CLI's automatic engine choice: a
// Clifford program runs on the Pauli-frame engine and lands float for float
// on the tableau estimate, and a program with a T gate takes the bit-sliced
// tableau fallback (the frame engine rejects it).
func TestEstimateOpEngineChoice(t *testing.T) {
	const head = "Prepare_Z 0.2 t=0 d=10000\nY_pi/4 0.2 t=10000 d=10000\n"
	op := orqcs.SitePauli{{R: 0, C: 2}: pauli.X}

	cliff := compileText(t, head+"Z_pi/4 0.2 t=20000 d=3000\nZ_pi/4 0.2 t=23000 d=3000\n")
	if !cliff.Clifford() {
		t.Fatal("test program is not Clifford")
	}
	sched := noise.Compile(noise.Depolarizing(0.05), cliff)
	mean, stderr, err := estimateOp(cliff, sched, op, 500, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantM, wantS, err := sched.EstimateMany([]orqcs.SitePauli{op}, 500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mean != wantM[0] || stderr != wantS[0] {
		t.Fatalf("Clifford: frame estimate %v ± %v, tableau %v ± %v", mean, stderr, wantM[0], wantS[0])
	}
	if mean == 1 {
		t.Fatal("Clifford: noise left no trace on the estimate")
	}

	tprog := compileText(t, head+"Z_pi/8 0.2 t=20000 d=3000\n")
	if tprog.NumTGates() != 1 {
		t.Fatalf("test program has %d T gates, want 1", tprog.NumTGates())
	}
	mean, stderr, err = estimateOp(tprog, nil, op, 500, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantMean, wantStderr, err := orqcs.EstimateBatch(tprog, op, 500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mean != wantMean || stderr != wantStderr {
		t.Fatalf("T gate: fallback estimate %v ± %v, tableau %v ± %v", mean, stderr, wantMean, wantStderr)
	}
}

// TestCLIErrorPaths re-executes the test binary as the orqcs CLI with
// invalid flags and asserts each run exits with a usage error (status 2,
// "orqcs:" message) rather than an internal panic with a stack trace.
func TestCLIErrorPaths(t *testing.T) {
	if os.Getenv("ORQCS_RUN_MAIN") == "1" {
		// Child process: become the CLI.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"orqcs"}, strings.Split(os.Getenv("ORQCS_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative-distance", []string{"-memory", "-3"}, "distance must be ≥ 2"},
		{"zero-distance", []string{"-memory", "0"}, "distance must be ≥ 2"},
		{"negative-rounds", []string{"-memory", "3:-2"}, "rounds must be ≥ 0"},
		{"bad-spec", []string{"-surgery", "abc"}, "bad -surgery"},
		{"surgery-negative", []string{"-surgery", "-5:1"}, "distance must be ≥ 2"},
		{"surgery-zero-rounds", []string{"-surgery", "3:0"}, "merged rounds must be ≥ 1"},
		{"noise-too-big", []string{"-memory", "3", "-noise", "1.5"}, "probability in [0, 1]"},
		{"noise-negative", []string{"-memory", "3", "-noise", "-0.25"}, "probability in [0, 1]"},
		{"zero-shots", []string{"-memory", "3", "-shots", "0"}, "-shots must be ≥ 1"},
		{"negative-workers", []string{"-memory", "3", "-workers", "-2"}, "-workers must be ≥ 0"},
		{"both-experiments", []string{"-memory", "3", "-surgery", "3"}, "mutually exclusive"},
		{"metrics-without-experiment", []string{"-circuit", "x.tiscc", "-metrics", "m.json"}, "-metrics requires -memory or -surgery"},
		{"prom-without-experiment", []string{"-circuit", "x.tiscc", "-prom", "m.prom"}, "-prom requires -memory or -surgery"},
		{"diag-without-noise", []string{"-memory", "3", "-diag"}, "-diag requires -memory or -surgery with -noise"},
		{"dem-calib-without-decode", []string{"-memory", "3", "-noise", "1e-3", "-dem-calib"}, "-dem-calib requires a decoded noisy experiment"},
		{"progress-without-noise", []string{"-memory", "3", "-progress"}, "-progress requires -memory or -surgery with -noise"},
		{"nothing", []string{}, "is required"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestCLIErrorPaths")
			cmd.Env = append(os.Environ(),
				"ORQCS_RUN_MAIN=1",
				"ORQCS_ARGS="+strings.Join(tc.args, "\x1f"))
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("args %v: expected a usage-error exit, got err=%v output=%q", tc.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("args %v: exit code %d, want 2; output:\n%s", tc.args, code, out)
			}
			if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine ") {
				t.Fatalf("args %v: CLI panicked:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("args %v: output missing %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestMemoryMetricsManifest runs a real decoded -memory estimation through
// the re-exec harness with -metrics and validates the resulting manifest:
// schema check, stage spans inside wall time, and nonzero pipeline counters.
func TestMemoryMetricsManifest(t *testing.T) {
	if os.Getenv("ORQCS_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"orqcs"}, strings.Split(os.Getenv("ORQCS_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	manPath := filepath.Join(t.TempDir(), "run.json")
	args := []string{"-memory", "3", "-noise", "2e-3", "-decode", "-shots", "256", "-metrics", manPath}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMemoryMetricsManifest")
	cmd.Env = append(os.Environ(),
		"ORQCS_RUN_MAIN=1",
		"ORQCS_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("args %v failed: %v\n%s", args, err, out)
	}
	man, err := telemetry.ReadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "orqcs" || len(man.Points) != 1 {
		t.Fatalf("manifest tool=%q points=%d", man.Tool, len(man.Points))
	}
	pt := man.Points[0]
	if pt.Result["shots"] != float64(256) {
		t.Fatalf("point shots %v, want 256", pt.Result["shots"])
	}
	for _, comp := range []string{"program", "noise", "sampler", "decoder"} {
		if pt.Metrics[comp] == nil {
			t.Fatalf("point metrics missing %q: %v", comp, pt.Metrics)
		}
	}
	if got := pt.Metrics["decoder"].Counter("shots"); got != 256 {
		t.Fatalf("decoder counted %d shots, want 256", got)
	}
	if pt.Metrics["program"].Counter("instructions") == 0 ||
		pt.Metrics["noise"].Counter("fault_sites") == 0 {
		t.Fatal("compile-time metrics empty")
	}
}

// TestMemoryProm checks the -prom flag (shared with tiscc-bench via the
// manifest's Prometheus writer): a decoded -memory run must emit the decoder
// shot counter, a sampler counter and the stage-span gauge under the tiscc
// namespace.
func TestMemoryProm(t *testing.T) {
	if os.Getenv("ORQCS_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"orqcs"}, strings.Split(os.Getenv("ORQCS_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	promPath := filepath.Join(t.TempDir(), "run.prom")
	args := []string{"-memory", "3", "-noise", "2e-3", "-decode", "-shots", "256", "-prom", promPath}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMemoryProm")
	cmd.Env = append(os.Environ(),
		"ORQCS_RUN_MAIN=1",
		"ORQCS_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("args %v failed: %v\n%s", args, err, out)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tiscc_decoder_shots_total 256",
		"tiscc_sampler_faults_fired_total",
		`tiscc_stage_seconds{stage="estimate"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}

// TestCrossEntryPointEstimates pins the decoded d=3 estimates (depolarizing
// p=3e-3, 500 shots, seed 1) that every entry point — both CLIs, the HTTP
// service and the tiscc facade — must agree on; the twins of this test live
// next to each of the other entry points.
func TestCrossEntryPointEstimates(t *testing.T) {
	if os.Getenv("ORQCS_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		os.Args = append([]string{"orqcs"}, strings.Split(os.Getenv("ORQCS_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ flag, want string }{
		{"-memory", "(25/500 shots, 95% CI [3.409e-02, 7.277e-02])"},
		{"-surgery", "(53/500 shots, 95% CI [8.196e-02, 1.361e-01])"},
	} {
		args := []string{tc.flag, "3", "-noise", "3e-3", "-decode", "-shots", "500", "-seed", "1"}
		cmd := exec.Command(os.Args[0], "-test.run", "TestCrossEntryPointEstimates")
		cmd.Env = append(os.Environ(),
			"ORQCS_RUN_MAIN=1",
			"ORQCS_ARGS="+strings.Join(args, "\x1f"))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("args %v failed: %v\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "union-find decoded): p_L = ") || !strings.Contains(string(out), tc.want) {
			t.Fatalf("args %v: output missing %q:\n%s", args, tc.want, out)
		}
	}
}
