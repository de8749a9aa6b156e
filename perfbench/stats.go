package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// units names every metric the benchmark reports and its unit. It mirrors
// the end_to_end and per_layer lists of BENCHMARK.json (the smoke test
// checks the two agree).
var units = map[string]string{
	// End to end (tracing off).
	"setup_s":        "s",
	"time_to_ci_s":   "s",
	"shots_per_s":    "1/s",
	"shots_per_s_1w": "1/s",
	"peak_rss_mb":    "MB",
	"req_per_s":      "1/s",
	"hit_p50_ms":     "ms",
	"hit_tail_ms":    "ms",
	"miss_p50_ms":    "ms",
	"miss_tail_ms":   "ms",

	// Per layer (traced run).
	"verify.experiment_s":             "s",
	"noise.compile_s":                 "s",
	"decoder.extract_s":               "s",
	"verify.surgery_experiment_s":     "s",
	"decoder.extract_surgery_s":       "s",
	"decoder.graph_compile_s":         "s",
	"decoder.graph_compile_alloc_mb":  "MB",
	"frame.reference_ms":              "ms",
	"frame.sample_us_per_shot":        "us",
	"frame.records_us_per_shot":       "us",
	"decoder.decode_us_per_shot":      "us",
	"noise.estimate_self_us_per_shot": "us",
	"noise.estimate_allocs_per_shot":  "count",
	"serve.compile_artifact_s":        "s",
	"wire.roundtrip_ms":               "ms",
	"wire.bundle_bytes":               "bytes",
	"serve.hit_overhead_ms":           "ms",
	"serve.hit_ratio":                 "ratio",
	"orqcs.instrs":                    "count",
	"noise.fault_sites":               "count",
	"decoder.detectors":               "count",
	"decoder.edges":                   "count",
	"frame.events":                    "count",
	"decoder.defects_per_shot":        "count",
	"decoder.grow_rounds_per_shot":    "count",
	"decoder.empty_syndrome_ratio":    "ratio",
	"frame.faults_fired_per_shot":     "count",
	"trace.overhead_ratio":            "ratio",
	"trace.span_coverage":             "ratio",
}

// endToEnd lists the metrics reported with tracing off, in print order.
var endToEnd = []string{
	"setup_s", "time_to_ci_s", "shots_per_s", "shots_per_s_1w", "peak_rss_mb",
	"req_per_s", "hit_p50_ms", "hit_tail_ms", "miss_p50_ms", "miss_tail_ms",
}

// countNames are the deterministic work counts: they must repeat exactly
// between runs at one seed, so any drift is a benchmark fault rather than
// noise.
var countNames = []string{
	"orqcs.instrs", "noise.fault_sites", "decoder.detectors", "decoder.edges",
	"frame.events", "decoder.defects_per_shot", "decoder.grow_rounds_per_shot",
	"decoder.empty_syndrome_ratio", "frame.faults_fired_per_shot",
}

// perLayer lists the metrics reported by the traced run, in print order.
func perLayer() []string {
	var names []string
	for n := range units {
		if !contains(endToEnd, n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// median of xs (linear interpolation between the middle pair).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic of xs that leaves at least ten
// samples beyond it, capped at the nearest-rank want-th percentile, and
// the percentile it sits at. With fewer than eleven samples it is the
// maximum.
func tail(xs []float64, want float64) (v, q float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	idx := max(0, min(int(math.Ceil(want*float64(n)/100))-1, n-11))
	if n < 11 {
		idx = n - 1
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// latencySummary reports median and tail of a latency sample in ms, with
// a note giving the tail's percentile and the sample count.
func latencySummary(name string, ms []float64, want float64) (p50, tl float64, note string) {
	p50 = median(ms)
	tl, q := tail(ms, want)
	note = fmt.Sprintf("%s: p50 %.3f ms, tail p%.0f %.3f ms, n=%d", name, p50, q, tl, len(ms))
	return p50, tl, note
}

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// splitmix64 derives independent sub-seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// subSeed derives the i-th seed of a named stream from the workload seed,
// so every input the program sees is a pure function of --seed.
func subSeed(seed int64, stream uint64, i int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)^stream*0x100000001B3)+uint64(i)) >> 1)
}

// Sub-seed streams. streamCold seeds the set-up phase's requests (the
// memory workloads' misses, the service's warm-up bodies).
const (
	streamCold uint64 = iota + 1
	streamCI
	streamReq
	streamClient
	streamFresh
	streamReplay
	streamHot
	streamCheck
)
