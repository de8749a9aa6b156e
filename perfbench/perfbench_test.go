package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tiscc/internal/serve"
)

// tinyWorkloads are the three workloads shrunk to test size: same code
// paths, distance 3, a handful of repetitions.
func tinyWorkloads() map[string]workload {
	return map[string]workload{
		"tiny-decoded": batchSpec{
			name: "tiny-decoded", d: 3, rounds: 3, p: 1e-3, decode: true,
			reqShots: 64, setupReps: 3, traceReps: 2, ciReps: 1,
			ciHalfWidth: 0.05, ciBatch: 256, hitTail: 90, missTail: 75,
		},
		"tiny-raw": batchSpec{
			name: "tiny-raw", d: 3, rounds: 3, p: 1e-3,
			reqShots: 64, setupReps: 3, traceReps: 2, ciReps: 1,
			ciHalfWidth: 0.05, ciBatch: 256, hitTail: 90, missTail: 75,
		},
		"tiny-serve": serveSpec{
			name: "tiny-serve",
			hot: []hotKey{
				{serve.WorkloadMemory, 3, serve.ModelDepolarizing, 1e-3, 64},
				{serve.WorkloadSurgery, 3, serve.ModelTable5, 0, 64},
			},
			missD: 3, missShots: 64, missP: 1e-3, missEvery: 2,
			setupReps: 2, traceReps: 1, checkMisses: 1, replays: 2, replayCompiles: 1, surgeryD: 3,
			cacheBytesPerClient: 32 << 20, hitTail: 95, missTail: 90,
		},
	}
}

// benchMetrics reads the metric lists of BENCHMARK.json.
func benchMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// runTiny runs one tiny workload and returns the exit code and JSON line.
func runTiny(t *testing.T, name string, traced bool, expected []byte, dir string) (int, output, string) {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	return runTinyWith(t, name, tr, expected, dir)
}

// runTinyWith runs one tiny workload with the given tracer (nil: untraced).
func runTinyWith(t *testing.T, name string, tr *tracer, expected []byte, dir string) (int, output, string) {
	t.Helper()
	e := &env{seed: defaultSeed, window: 400 * time.Millisecond, workers: runtime.GOMAXPROCS(0), tr: tr}
	var stdout, stderr bytes.Buffer
	code := measure(name, tinyWorkloads()[name], e, expected, dir, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, stdout.String())
	}
	return code, out, stdout.String() + stderr.String()
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	e2e, layer := benchMetrics(t)
	if len(e2e) != len(endToEnd) || len(layer) != len(perLayer()) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(e2e), len(layer), len(endToEnd), len(perLayer()))
	}
	dir := t.TempDir()
	for _, name := range sortedKeys(tinyWorkloads()) {
		for _, traced := range []bool{false, true} {
			code, out, log := runTiny(t, name, traced, []byte("{}"), dir)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, %+v\n%s", name, traced, code, out, log)
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(out.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := out.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, n, m, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
		}
	}
}

func TestRequestGeneratorIsSeedDeterministic(t *testing.T) {
	sp := defaultServeSpec()
	bodies := func(seed int64) []string {
		var out []string
		for c := 0; c < 2; c++ {
			for i := 0; i < 200; i++ {
				out = append(out, string(sp.request(seed, c, i).body()))
			}
		}
		return out
	}
	a, b, other := bodies(7), bodies(7), bodies(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two generations at one seed:\n%s\n%s", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of %d requests identical across seeds 7 and 8", same, len(a))
	}

	// One fresh key in every block, never repeated.
	fresh := map[serve.Key]bool{}
	for c := 0; c < 2; c++ {
		for block := 0; block < 50; block++ {
			n := 0
			for i := block * sp.missEvery; i < (block+1)*sp.missEvery; i++ {
				g := sp.request(7, c, i)
				if g.hot {
					continue
				}
				n++
				k := keyOf(g.req)
				if fresh[k] {
					t.Fatalf("fresh key %v generated twice", k)
				}
				fresh[k] = true
			}
			if n != 1 {
				t.Fatalf("client %d block %d has %d misses, want 1", c, block, n)
			}
		}
	}
}

func TestWrongExpectedValueFailsTheGate(t *testing.T) {
	dir := t.TempDir()
	code, out, log := runTiny(t, "tiny-decoded", false, []byte("{}"), dir)
	if code != 0 || !out.Correct {
		t.Fatalf("baseline run failed: %+v\n%s", out, log)
	}
	i := strings.Index(log, "# results: ")
	var got map[string]string
	if err := json.Unmarshal([]byte(strings.SplitN(log[i+len("# results: "):], "\n", 2)[0]), &got); err != nil {
		t.Fatal(err)
	}

	right, _ := json.Marshal(map[string]map[string]string{"tiny-decoded": got})
	if code, out, log := runTiny(t, "tiny-decoded", false, right, dir); code != 0 || !out.Correct {
		t.Fatalf("run with the true expected values failed: %+v\n%s", out, log)
	}

	got["fixed.errors"] += "1"
	wrong, _ := json.Marshal(map[string]map[string]string{"tiny-decoded": got})
	code, out, log = runTiny(t, "tiny-decoded", false, wrong, dir)
	if code == 0 || out.Correct {
		t.Fatalf("a wrong expected value passed the gate: exit %d, %+v", code, out)
	}
	if !strings.Contains(log, "fixed.errors") {
		t.Errorf("failure does not name the mismatched value:\n%s", log)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{}
	root := tr.add("bench.request", 0, 0, 100)
	tr.add("a", root, 10, 40)
	tr.add("b", root, 30, 60) // overlaps a: the union is [10, 60)
	tr.add("c", root, 90, 120)
	tr.add("bench.gates", root, 60, 90)   // harness: not layer coverage
	tr.add("bench.loop.1w", 0, 200, 1000) // not a unit span
	st := tr.analyze()
	if got := st.self["bench.request"]; got != 100-50-10-30 {
		t.Errorf("request self time %d, want 10", got)
	}
	if st.cover != 60.0/100 {
		t.Errorf("coverage %v, want %v", st.cover, 60.0/100)
	}
}

// A layer call left untimed must show as a coverage failure: dropping the
// estimator's span leaves the traced requests uncovered.
func TestDroppedLayerSpanFailsCoverage(t *testing.T) {
	dir := t.TempDir()
	code, out, log := runTinyWith(t, "tiny-decoded", newTracer(), []byte("{}"), dir)
	if code != 0 || !out.Correct || out.Metrics["trace.span_coverage"].Value < 0.9 {
		t.Fatalf("complete trace failed: exit %d, %+v\n%s", code, out, log)
	}
	tr := newTracer()
	tr.drop = "noise.estimate"
	code, out, log = runTinyWith(t, "tiny-decoded", tr, []byte("{}"), dir)
	if code == 0 || out.Correct {
		t.Fatalf("a trace without the estimator's spans passed: exit %d, coverage %v",
			code, out.Metrics["trace.span_coverage"].Value)
	}
	if !strings.Contains(log, "layer spans cover") {
		t.Errorf("failure does not name the coverage gate:\n%s", log)
	}
}
