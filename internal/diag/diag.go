// Package diag is the estimation pipeline's diagnostics layer: it turns the
// single number a sweep point reports (decoded p_L with a CI) into an
// explanation of where that number comes from and how far along it is.
//
// Three legs, all opt-in and all outside the sampling hot path:
//
//   - error-budget attribution (Collector + AttributionReport): every judged
//     shot's fired faults are replayed from its seed (noise.FiredFaults — a
//     pure function of the shot seed, never touching the samplers' RNG
//     streams) and accumulated per error-budget channel (gate class ×
//     fault kind) split by shot outcome, yielding fire counts, smoothed
//     fail/ok odds ratios, and an empirical per-channel decomposition of the
//     logical error rate that sums to p_L exactly;
//   - decoder calibration introspection (DetectorReport): per-detector
//     observed fire rates against the DEM-predicted marginals
//     (decoder.PredictedDetectorRates) with binomial z-scores — the
//     Stim-style calibration residual check — plus failure localization
//     (which detectors fired on the shots the decoder got wrong, and sampled
//     defect sets of the first failures);
//   - streaming sweep progress (ProgressWriter): schema-versioned NDJSON
//     batch heartbeats from the estimator's in-order fold.
//
// The Collector implements noise.ShotObserver; calls may be concurrent, so
// accumulation goes through pooled per-worker scratches (bounded, allocated
// once per worker) merged only at report time — the same single-owner shard
// discipline as internal/telemetry. Observation is read-only with respect to
// the run: records stay bit-identical with and without it.
package diag

import (
	"sync"

	"tiscc/internal/decoder"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
)

// maxFailureSamples bounds the localized failing-shot defect sets kept per
// scratch (and per merged report): enough to debug, bounded by construction.
const maxFailureSamples = 8

// attribUnit is the fixed-point budget of one failing shot in the p_L
// attribution: the shot's share of each channel that fired on it is an
// integer number of units, and the shares sum to attribUnit exactly. Integer
// sums do not depend on the order the per-worker scratches merge in, so the
// attribution is bit-identical from run to run. (Overflow needs 2³² failing
// shots.)
const attribUnit = 1 << 32

// channel is one error-budget channel: the (gate class, fault kind) pair of
// a set of fault sites.
type channel struct {
	kind  noise.FaultKind
	class noise.GateClass
	sites int
}

// Collector accumulates per-shot diagnostics for one estimation run. Create
// one per run with NewCollector, pass it as noise.Options.Observer, and read
// the reports at quiescence (after EstimateLogicalError returns).
type Collector struct {
	sched *noise.Schedule
	dets  *decoder.Detectors // nil: attribution only, no detector stats
	seed  int64

	chans    []channel
	siteChan []uint16 // fault site → dense channel index

	mu        sync.Mutex
	scratches []*scratch
	pool      sync.Pool
}

// scratch is one worker's accumulation state: every slice is allocated once
// at full size when the worker first observes a shot, so observation itself
// performs no heap allocation beyond the FiredFaults replay buffer's initial
// growth.
type scratch struct {
	fired   []int32  // FiredFaults replay buffer
	perShot []uint32 // per-channel fires of the current shot
	touched []uint16 // channels touched by the current shot
	syn     []int32  // syndrome buffer

	shotsOK, shotsFail uint64
	chanOK, chanFail   []uint64 // per-channel fire counts by outcome
	plUnits            []uint64 // per-channel failure attribution, in attribUnits
	detFired, detFail  []uint64 // per-detector fire counts (all / failing shots)
	failures           []FailureSample
}

// FailureSample localizes one shot the decoder (or raw readout) got wrong:
// the shot index and the detectors that fired on it.
type FailureSample struct {
	Shot    int     `json:"shot"`
	Defects []int32 `json:"defects"`
}

// NewCollector builds a collector for one estimation run: sched and seed
// must match the run's schedule and Options.Seed (shot i replays its faults
// from orqcs.ShotSeed(seed, i)). dets, when non-nil, additionally enables
// per-detector observed-rate accumulation and failure localization; it must
// be the detector structure of the decoded experiment.
func NewCollector(sched *noise.Schedule, dets *decoder.Detectors, seed int64) *Collector {
	c := &Collector{sched: sched, dets: dets, seed: seed}
	n := sched.NumFaultSites()
	dense := make([]int16, int(noise.NumFaultKinds)*int(noise.NumGateClasses))
	for i := range dense {
		dense[i] = -1
	}
	c.siteChan = make([]uint16, n)
	for k := 0; k < n; k++ {
		f := c.sched.SiteFault(k)
		cl := c.sched.SiteClass(k)
		key := int(f.Kind)*int(noise.NumGateClasses) + int(cl)
		if dense[key] < 0 {
			dense[key] = int16(len(c.chans))
			c.chans = append(c.chans, channel{kind: f.Kind, class: cl})
		}
		ci := dense[key]
		c.chans[ci].sites++
		c.siteChan[k] = uint16(ci)
	}
	c.pool.New = func() any {
		sc := &scratch{
			fired:    make([]int32, 0, 64),
			perShot:  make([]uint32, len(c.chans)),
			touched:  make([]uint16, 0, len(c.chans)),
			chanOK:   make([]uint64, len(c.chans)),
			chanFail: make([]uint64, len(c.chans)),
			plUnits:  make([]uint64, len(c.chans)),
		}
		if c.dets != nil {
			nd := c.dets.NumDetectors()
			sc.syn = make([]int32, 0, nd)
			sc.detFired = make([]uint64, nd)
			sc.detFail = make([]uint64, nd)
		}
		c.mu.Lock()
		c.scratches = append(c.scratches, sc)
		c.mu.Unlock()
		return sc
	}
	return c
}

// ObserveShot implements noise.ShotObserver: it replays the shot's fired
// faults from its seed, buckets them per error-budget channel by outcome,
// and — when a detector structure is attached — accumulates the shot's
// syndrome into the per-detector observed-rate and failure-localization
// counters. Safe for concurrent use (pooled per-worker scratch).
func (c *Collector) ObserveShot(shot int, bad bool, records map[int32]bool) {
	sc := c.pool.Get().(*scratch)
	sc.fired = c.sched.FiredFaults(orqcs.ShotSeed(c.seed, shot), sc.fired[:0])
	for _, k := range sc.fired {
		ch := c.siteChan[k]
		if sc.perShot[ch] == 0 {
			sc.touched = append(sc.touched, ch)
		}
		sc.perShot[ch]++
	}
	if bad {
		sc.shotsFail++
		// Distribute this failure across the channels that fired, by fire
		// share, in integer units: the last channel takes what the rounded-
		// down shares of the others leave, so the per-channel sums add up
		// to failures × attribUnit exactly and the attribution table's p_L
		// contributions sum to p_L by construction. A failing shot always
		// has ≥ 1 fired fault (a fault-free shot reproduces the noiseless
		// reference bit-for-bit), but guard the division anyway.
		if total := uint64(len(sc.fired)); total > 0 {
			left := uint64(attribUnit)
			for k, ch := range sc.touched {
				n := uint64(sc.perShot[ch])
				sc.chanFail[ch] += n
				share := n * attribUnit / total
				if k == len(sc.touched)-1 {
					share = left
				}
				left -= share
				sc.plUnits[ch] += share
			}
		}
	} else {
		sc.shotsOK++
		for _, ch := range sc.touched {
			sc.chanOK[ch] += uint64(sc.perShot[ch])
		}
	}
	for _, ch := range sc.touched {
		sc.perShot[ch] = 0
	}
	sc.touched = sc.touched[:0]
	if c.dets != nil {
		sc.syn = c.dets.Syndrome(records, sc.syn[:0])
		for _, di := range sc.syn {
			sc.detFired[di]++
			if bad {
				sc.detFail[di]++
			}
		}
		if bad {
			sc.keepFailure(shot)
		}
	}
	c.pool.Put(sc)
}

// keepFailure offers a failing shot (its syndrome in sc.syn) to the
// scratch's localization sample, which keeps the maxFailureSamples
// lowest-numbered failing shots it has seen, in whatever order the shots
// arrive. Every scratch keeping its own lowest is what lets merged return
// the lowest overall.
func (sc *scratch) keepFailure(shot int) {
	slot := len(sc.failures)
	if slot == maxFailureSamples {
		slot = 0
		for i := range sc.failures {
			if sc.failures[i].Shot > sc.failures[slot].Shot {
				slot = i
			}
		}
		if shot > sc.failures[slot].Shot {
			return
		}
	} else {
		sc.failures = append(sc.failures, FailureSample{})
	}
	sc.failures[slot] = FailureSample{Shot: shot, Defects: append([]int32(nil), sc.syn...)}
}

// merged folds every worker scratch into one totals view. Only call at
// quiescence (no ObserveShot in flight).
func (c *Collector) merged() *scratch {
	m := &scratch{
		chanOK:   make([]uint64, len(c.chans)),
		chanFail: make([]uint64, len(c.chans)),
		plUnits:  make([]uint64, len(c.chans)),
	}
	if c.dets != nil {
		nd := c.dets.NumDetectors()
		m.detFired = make([]uint64, nd)
		m.detFail = make([]uint64, nd)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sc := range c.scratches {
		m.shotsOK += sc.shotsOK
		m.shotsFail += sc.shotsFail
		for i := range c.chans {
			m.chanOK[i] += sc.chanOK[i]
			m.chanFail[i] += sc.chanFail[i]
			m.plUnits[i] += sc.plUnits[i]
		}
		for i := range m.detFired {
			m.detFired[i] += sc.detFired[i]
			m.detFail[i] += sc.detFail[i]
		}
		m.failures = append(m.failures, sc.failures...)
	}
	// Deterministic localization sample regardless of worker scheduling:
	// each scratch kept its lowest-numbered failing shots, so the lowest
	// overall are among them.
	sortFailures(m.failures)
	if len(m.failures) > maxFailureSamples {
		m.failures = m.failures[:maxFailureSamples]
	}
	return m
}

func sortFailures(fs []FailureSample) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Shot < fs[j-1].Shot; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
