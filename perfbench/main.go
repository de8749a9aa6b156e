// Command perfbench is the repository benchmark. It drives the decoded
// logical-error pipeline — circuit compile and lowering, fault schedule,
// detector extraction and decoding-graph compile, frame sampling,
// union-find decoding, the estimator fold, and the HTTP estimate service —
// from outside, through the same public calls cmd/tiscc-bench -noise and
// internal/serve make, and prints one JSON result line.
//
//	perfbench --workload memory-d7-decoded --seed 1 --seconds 16 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the workload
// with spans around every layer call and reports the per-layer split. See
// README.md for the metrics, workloads and baseline.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose deterministic results are pinned in
// expected.json.
const defaultSeed = 1

//go:embed expected.json
var expectedJSON []byte

// workload is one set of inputs the benchmark runs.
type workload interface {
	run(e *env) *report
}

// workloads returns the benchmark's workloads by name.
func workloads() map[string]workload {
	return map[string]workload{
		"memory-d7-decoded": batchSpec{
			name: "memory-d7-decoded", d: 7, rounds: 7, p: 1e-3, decode: true,
			reqShots: 256, setupReps: 30, traceReps: 5, ciReps: 10,
			ciHalfWidth: 4e-3, ciBatch: 2048,
			hitTail: 90, missTail: 75,
		},
		"memory-d11-raw": batchSpec{
			name: "memory-d11-raw", d: 11, rounds: 11, p: 1e-3, decode: false,
			reqShots: 256, setupReps: 30, traceReps: 5, ciReps: 15,
			ciHalfWidth: 2e-2, ciBatch: 4096,
			hitTail: 90, missTail: 75,
		},
		"serve-mixed": defaultServeSpec(),
	}
}

// env is what a workload run is given.
type env struct {
	seed    int64
	window  time.Duration // measured time, split between the run's loops
	workers int           // all cores
	tr      *tracer       // nil: untraced run
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// results holds the run's deterministic outcomes (estimates, work
	// counts, response digests); at the default seed they must equal
	// expected.json.
	results map[string]string
	notes   []string
	faults  []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, results: map[string]string{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fault records a failed correctness check: the run then fails.
func (r *report) fault(format string, args ...any) {
	r.faults = append(r.faults, fmt.Sprintf(format, args...))
}

// setCounts reports the deterministic work counts as metrics and results.
// Counts a workload's layers do not produce read 0.
func (r *report) setCounts(c map[string]float64) {
	for _, n := range countNames {
		r.metrics[n] = c[n]
		r.results["count."+n] = strconv.FormatFloat(c[n], 'g', -1, 64)
	}
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, ".bench_build/perfbench"))
}

// run executes one benchmark run and returns the exit code. Trace files
// and the cross-run count records go under outDir.
func run(args []string, stdout, stderr io.Writer, outDir string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 16, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(sortedKeys(workloads()), "|"))
		return 2
	}
	e := &env{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), workers: runtime.GOMAXPROCS(0)}
	if *trace == 1 {
		e.tr = newTracer()
	}
	return measure(*name, w, e, expectedJSON, outDir, stdout, stderr)
}

// measure runs workload w, applies the correctness gates that hold for
// every workload (pinned default-seed results, repeatable work counts,
// span coverage), and prints the result.
func measure(name string, w workload, e *env, expected []byte, outDir string, stdout, stderr io.Writer) int {
	r := w.run(e)
	if err := checkResults(name, e.seed, r.results, expected); err != nil {
		r.fault("%v", err)
	}
	if err := checkCounts(filepath.Join(outDir, "counts"), name, e.seed, r.results); err != nil {
		r.fault("%v", err)
	}
	if e.tr != nil {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.tsv", name, e.seed))
		if err := e.tr.write(path); err != nil {
			r.fault("write trace: %v", err)
		} else {
			r.note("spans written to %s", path)
		}
		c := e.tr.analyze().cover
		r.metrics["trace.span_coverage"] = c
		if c < 0.9 {
			r.fault("layer spans cover %.1f%% of the traced set-ups, requests and compiles, want ≥ 90%%", 100*c)
		}
	}
	return emit(r, e.tr != nil, stdout, stderr)
}

// emit prints the notes and metrics by name and unit, then the JSON line.
func emit(r *report, traced bool, stdout, stderr io.Writer) int {
	names := endToEnd
	if traced {
		names = perLayer()
	}
	out := output{Correct: len(r.faults) == 0 && r.failed == 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]metric{}}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok && !traced {
			r.fault("metric %s was not measured", n)
		}
		out.Metrics[n] = metric{Value: v, Unit: units[n]}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, v, units[n])
	}
	res, _ := json.Marshal(r.results)
	fmt.Fprintf(stdout, "# results: %s\n", res)
	if len(r.faults) > 0 || r.failed > 0 {
		for _, f := range r.faults {
			fmt.Fprintln(stderr, "perfbench: FAIL:", f)
		}
		out.Correct = false
		line, _ := json.Marshal(out)
		fmt.Fprintln(stdout, string(line))
		return 1
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkResults compares a run's deterministic results with the pinned
// expectations; only the default seed is pinned.
func checkResults(name string, seed int64, got map[string]string, expected []byte) error {
	if seed != defaultSeed {
		return nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(expected, &all); err != nil {
		return fmt.Errorf("expected results: %v", err)
	}
	want, ok := all[name]
	if !ok {
		return nil
	}
	var diffs []string
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			diffs = append(diffs, fmt.Sprintf("%s = %q, expected %q", k, got[k], want[k]))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("default-seed results differ from expected.json: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// checkCounts is the steadiness self-check: the deterministic work counts
// of a (workload, seed) must repeat exactly from run to run of one build.
// The first run records them under dir; later runs compare.
func checkCounts(dir, name string, seed int64, results map[string]string) error {
	counts := map[string]string{}
	for k, v := range results {
		if strings.HasPrefix(k, "count.") {
			counts[k] = v
		}
	}
	if len(counts) == 0 {
		return nil
	}
	build, err := buildHash()
	if err != nil {
		return fmt.Errorf("steadiness check: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", name, seed, build))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		data, _ := json.Marshal(counts)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("steadiness check: %v", err)
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("steadiness check: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("steadiness check: %s: %v", path, err)
	}
	for k, v := range want {
		if counts[k] != v {
			return fmt.Errorf("benchmark fault: work count %s drifted between runs at seed %d: %s, earlier %s", k, seed, counts[k], v)
		}
	}
	return nil
}

// buildHash identifies the running binary, so count records of different
// builds never meet.
func buildHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
