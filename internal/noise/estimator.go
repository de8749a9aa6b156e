package noise

import (
	"fmt"
	"math"

	"tiscc/internal/expr"
	"tiscc/internal/orqcs"
)

// OptionError reports an invalid Options field in one consistent format,
// shared by every estimation entry point (EstimateLogicalError and the frame
// sampler paths), always naming the offending field and value.
type OptionError struct {
	Op         string // entry point, e.g. "noise.EstimateLogicalError"
	Field      string // Options field name, e.g. "Shots"
	Value      any    // offending value
	Constraint string // what the field must satisfy, e.g. "must be ≥ 1"
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("%s: invalid Options.%s = %v (%s)", e.Op, e.Field, e.Value, e.Constraint)
}

// Options configures a logical-error-rate estimation run.
type Options struct {
	// Shots is the maximum number of noisy shots (default 1000).
	Shots int
	// Seed is the base seed; shot i runs with orqcs.ShotSeed(Seed, i).
	Seed int64
	// Workers sizes the shot pool (≤ 0 selects GOMAXPROCS). Results are
	// identical for every worker count.
	Workers int
	// TargetStdErr, when positive, stops the run early once the estimate's
	// Wilson-interval standard error (half-width / z) drops to the target.
	// The decision is taken only at Batch boundaries, so early-stopped runs
	// are an exact prefix of the full run and stay deterministic. Values
	// ≤ 0 (−Inf included) disable early stopping; NaN and +Inf are rejected.
	TargetStdErr float64
	// Batch is the early-stopping check granularity in shots (default 256).
	Batch int
	// Decoder, when non-nil, replaces the raw outcome-formula readout: each
	// shot's logical outcome is the decoder's corrected value instead of the
	// bare XOR of the transversal records. This is how an error-correcting
	// decoder (internal/decoder's union-find matching) plugs into the
	// estimator without this package importing it.
	Decoder Decoder
	// Sampler, when non-nil, replaces the tableau shot loop as the source of
	// per-shot record tables. This is how the Pauli-frame engine
	// (internal/frame, bit-identical records at a fraction of the cost)
	// plugs into the estimator without this package importing it; it must
	// have been compiled against the same schedule.
	Sampler RecordSampler
	// Observer, when non-nil, receives every sampled shot's judged outcome
	// (the diagnostics layer's attribution/calibration hook). Calls may be
	// concurrent for distinct shots and the records map is only valid during
	// the call. Observation happens outside the counting fold and touches no
	// RNG stream, so results stay bit-identical with and without it; in an
	// early-stopped run the observer may see a handful of sampled shots
	// beyond the counted prefix. The default nil path is untouched (the
	// noisy shot loop keeps 0 allocs/shot).
	Observer ShotObserver
	// Progress, when non-nil, is called at every Batch boundary of the
	// in-order error fold with the counted prefix so far — the streaming
	// heartbeat hook (-progress). Every run folds in strict shot order, so
	// the hook observes exactly the prefixes early stopping decides on.
	Progress func(done, errors int, stopped bool)
}

// ShotObserver receives judged per-shot outcomes from the estimator: shot is
// the shot index (its records derive from orqcs.ShotSeed(Options.Seed, shot)),
// bad reports whether the shot's logical outcome disagreed with the noiseless
// reference. Implementations must be safe for concurrent use.
type ShotObserver interface {
	ObserveShot(shot int, bad bool, records map[int32]bool)
}

// RecordSampler produces the record tables of noisy shots without exposing
// an engine, under the visit contract of orqcs.RunShots: shot i's records
// derive from orqcs.ShotSeed(seed, i) for any worker count; visit may be
// called concurrently for distinct shots; the map is only valid during the
// call; a non-nil visit error stops the run and is returned.
type RecordSampler interface {
	SampleRecords(shots int, seed int64, workers int, visit func(shot int, records map[int32]bool) error) error
}

// Decoder turns one noisy shot's measurement-record table into a corrected
// logical outcome (syndrome decoding plus observable readout).
// Implementations must be safe for concurrent use: EstimateLogicalError
// calls DecodeOutcome from every shot worker, and the record map passed in
// is only valid for the duration of the call.
type Decoder interface {
	DecodeOutcome(records map[int32]bool) bool
}

// Result reports a logical-error-rate estimate.
type Result struct {
	Shots     int     // noisy shots executed (counted toward the estimate)
	Requested int     // shot cap of the run (== Shots unless stopped early)
	Errors    int     // shots whose decoded logical outcome differed from the reference
	Rate      float64 // Errors / Shots
	StdErr    float64 // binomial standard error √(p̂(1−p̂)/n)
	// WilsonLow and WilsonHigh bound the 95% Wilson score interval, which
	// stays meaningful at zero observed errors; HalfWidth is half its width
	// (the precision actually reached, the early-stopping criterion × z).
	WilsonLow, WilsonHigh float64
	HalfWidth             float64
	// EarlyStopBatch is the 1-based batch index at which the Wilson criterion
	// stopped the run, 0 if it ran to the shot cap.
	EarlyStopBatch int
	Reference      bool // the noiseless logical outcome compared against
}

func (r Result) String() string {
	return fmt.Sprintf("p_L = %.3e ± %.1e (%d/%d shots, 95%% CI [%.3e, %.3e])",
		r.Rate, r.StdErr, r.Errors, r.Shots, r.WilsonLow, r.WilsonHigh)
}

// z95 is the 97.5th standard-normal percentile (two-sided 95%).
const z95 = 1.959963984540054

// Wilson returns the 95% Wilson score interval for errors successes in
// shots trials.
func Wilson(errors, shots int) (lo, hi float64) {
	if shots == 0 {
		return 0, 1
	}
	n := float64(shots)
	ph := float64(errors) / n
	denom := 1 + z95*z95/n
	center := (ph + z95*z95/(2*n)) / denom
	half := z95 * math.Sqrt(ph*(1-ph)/n+z95*z95/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// result assembles a Result from raw counts.
func result(errors, shots, requested, stopBatch int, reference bool) Result {
	r := Result{Shots: shots, Requested: requested, Errors: errors,
		EarlyStopBatch: stopBatch, Reference: reference}
	if shots > 0 {
		r.Rate = float64(errors) / float64(shots)
		r.StdErr = math.Sqrt(r.Rate * (1 - r.Rate) / float64(shots))
	}
	r.WilsonLow, r.WilsonHigh = Wilson(errors, shots)
	r.HalfWidth = (r.WilsonHigh - r.WilsonLow) / 2
	return r
}

// wilsonStdErr is the Wilson half-width divided by z: a standard-error
// analogue that stays positive (and shrinking) at zero observed errors,
// which makes it a safe early-stopping criterion.
func wilsonStdErr(errors, shots int) float64 {
	lo, hi := Wilson(errors, shots)
	return (hi - lo) / (2 * z95)
}

// EstimateLogicalError runs noisy shots of the schedule's program, decodes
// each shot's logical outcome by evaluating the outcome formula against the
// shot's measurement records (the paper's Sec 4.5 post-processing), and
// reports the rate at which it disagrees with the noiseless reference,
// with a 95% Wilson confidence interval.
//
// The run is deterministic in (schedule, outcome, Options): error bits are
// folded in strict shot order and early stopping truncates the fixed shot
// sequence only at batch boundaries, so neither the worker count nor
// scheduling can change the result. The whole run — early stopping
// included — uses one worker pool, so engines are allocated once.
func EstimateLogicalError(s *Schedule, outcome expr.Expr, reference bool, opt Options) (Result, error) {
	const op = "noise.EstimateLogicalError"
	if opt.Shots < 0 {
		return Result{}, &OptionError{Op: op, Field: "Shots", Value: opt.Shots, Constraint: "must be ≥ 0"}
	}
	if opt.Workers < 0 {
		return Result{}, &OptionError{Op: op, Field: "Workers", Value: opt.Workers, Constraint: "must be ≥ 0"}
	}
	if opt.Batch < 0 {
		return Result{}, &OptionError{Op: op, Field: "Batch", Value: opt.Batch, Constraint: "must be ≥ 0"}
	}
	if math.IsNaN(opt.TargetStdErr) || math.IsInf(opt.TargetStdErr, 1) {
		return Result{}, &OptionError{Op: op, Field: "TargetStdErr", Value: opt.TargetStdErr, Constraint: "must be finite (≤ 0 disables early stopping)"}
	}
	// judge reports whether one finished shot's logical outcome disagrees
	// with the noiseless reference: via the decoder when one is configured,
	// via the raw readout formula otherwise.
	judge := func(records map[int32]bool) bool {
		return outcome.Eval(records) != reference
	}
	if opt.Decoder != nil {
		judge = func(records map[int32]bool) bool {
			return opt.Decoder.DecodeOutcome(records) != reference
		}
	} else if outcome.HasVirtual() {
		return Result{}, fmt.Errorf("noise: outcome formula references virtual records: %v", outcome)
	}
	shots := opt.Shots
	if shots <= 0 {
		shots = 1000
	}
	// sample drives the configured record source: the frame engine (or any
	// other RecordSampler) when one is plugged in, the tableau pool
	// otherwise. Either way shot i's records derive from ShotSeed(Seed, i),
	// so the estimate cannot depend on the source's batching.
	sample := func(visit func(shot int, records map[int32]bool) error) error {
		if opt.Sampler != nil {
			return opt.Sampler.SampleRecords(shots, opt.Seed, opt.Workers, visit)
		}
		return s.RunShots(shots, opt.Seed, opt.Workers,
			func(i int, e *orqcs.Engine) error { return visit(i, e.Records()) })
	}
	// judged evaluates one shot and feeds the observer before the outcome
	// enters the counting fold, so observation can never perturb counting.
	judged := func(i int, records map[int32]bool) bool {
		bad := judge(records)
		if opt.Observer != nil {
			opt.Observer.ObserveShot(i, bad, records)
		}
		return bad
	}
	batch := opt.Batch
	if batch == 0 {
		batch = 256
	}
	// The error bits fold in strict shot order, and the early-stopping
	// decision is taken at every batch boundary of that fold, so the counted
	// prefix depends only on the shot sequence: an early-stopped run is an
	// exact prefix of the full run, and shots sampled past the cutoff before
	// the pool drains are discarded uncounted.
	var errs, done, stopBatch int
	fold := orqcs.NewFold(func(_ int, bad bool) bool {
		if bad {
			errs++
		}
		done++
		if done%batch != 0 {
			return false
		}
		stop := opt.TargetStdErr > 0 && wilsonStdErr(errs, done) <= opt.TargetStdErr
		if stop {
			stopBatch = done / batch
		}
		if opt.Progress != nil {
			opt.Progress(done, errs, stop)
		}
		return stop
	}, nil)
	err := sample(func(i int, records map[int32]bool) error {
		if fold.Add(i, judged(i, records)) {
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return Result{}, err
	}
	return result(errs, done, shots, stopBatch, reference), nil
}

// errStop signals the worker pool that the target precision is reached.
var errStop = fmt.Errorf("noise: target standard error reached")
