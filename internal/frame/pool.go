package frame

import (
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
)

// SampleRecords runs shots shot lanes through the frame sampler, with 64-lane
// batches as the units of the deterministic worker pool (orqcs.RunPool), and
// hands each shot's record table to visit: the frame-engine counterpart of
// the tableau engines' RunShots, and the noise.RecordSampler implementation
// that plugs the engine into noise.EstimateLogicalError.
//
// Shot i's records derive from orqcs.ShotSeed(seed, i) regardless of worker
// count or batch placement. visit may be called concurrently from different
// workers (always for distinct shots); the map is only valid for the
// duration of the call. A non-nil error from visit stops the run.
func (s *Sim) SampleRecords(shots int, seed int64, workers int, visit func(shot int, records map[int32]bool) error) error {
	if shots < 0 {
		return &noise.OptionError{Op: "frame.SampleRecords", Field: "Shots", Value: shots, Constraint: "must be ≥ 0"}
	}
	if workers < 0 {
		return &noise.OptionError{Op: "frame.SampleRecords", Field: "Workers", Value: workers, Constraint: "must be ≥ 0"}
	}
	return orqcs.RunPool(numBatches(shots), workers, s.NewBatch, func(b *Batch, bi int) error {
		b.runBatch(bi, shots, seed)
		for lane := 0; lane < b.n; lane++ {
			if err := visit(b.first+lane, b.Records(lane)); err != nil {
				return err
			}
		}
		return nil
	})
}

// numBatches is the number of 64-lane batches — the pool's units — that
// cover shots shots.
func numBatches(shots int) int { return (shots + 63) / 64 }

// runBatch runs batch bi of a shots-shot run: shots [64·bi, min(64·bi+64,
// shots)), each lane still seeded per shot.
func (b *Batch) runBatch(bi, shots int, seed int64) {
	first := bi * 64
	b.Run(first, min(64, shots-first), seed)
}

// EstimateMany Monte-Carlo-estimates several Pauli operators over the
// sampler's program (under its fault schedule, when one was compiled): the
// frame-engine counterpart of orqcs.EstimateMany / noise
// Schedule.EstimateMany, with bit-identical per-shot values and the same
// strict-order streaming reduction, so means and standard errors match the
// tableau engines float for float at every worker count.
func (s *Sim) EstimateMany(ops []orqcs.SitePauli, shots int, seed int64, workers int) (means, stderrs []float64, err error) {
	if shots < 1 {
		return nil, nil, &noise.OptionError{Op: "frame.EstimateMany", Field: "Shots", Value: shots, Constraint: "must be ≥ 1"}
	}
	if workers < 0 {
		return nil, nil, &noise.OptionError{Op: "frame.EstimateMany", Field: "Workers", Value: workers, Constraint: "must be ≥ 0"}
	}
	if len(ops) == 0 {
		return nil, nil, &noise.OptionError{Op: "frame.EstimateMany", Field: "Ops", Value: ops, Constraint: "must name at least one operator"}
	}
	ros := make([]*Op, len(ops))
	for j, op := range ops {
		if ros[j], err = s.CompileOp(op); err != nil {
			return nil, nil, err
		}
	}
	// Batch bi's payload is one flip word per operator; the fold expands it
	// lane by lane, so shots enter the reduction in strict shot order.
	st := orqcs.NewStats(len(ops))
	vals := make([]float64, len(ops)) // only touched under the fold's lock
	fold := orqcs.NewFold(func(bi int, flips []uint64) bool {
		lanes := min(64, shots-bi*64)
		for lane := 0; lane < lanes; lane++ {
			for j, ro := range ros {
				v := ro.ref
				if flips[j]>>uint(lane)&1 == 1 {
					v = -v
				}
				vals[j] = v
			}
			st.Add(vals)
		}
		return false
	}, func(dst, flips []uint64) []uint64 { return append(dst[:0], flips...) })
	type worker struct {
		b     *Batch
		flips []uint64
	}
	newWorker := func() *worker { return &worker{b: s.NewBatch(), flips: make([]uint64, len(ops))} }
	if err := orqcs.RunPool(numBatches(shots), workers, newWorker, func(w *worker, bi int) error {
		w.b.runBatch(bi, shots, seed)
		for j, ro := range ros {
			w.flips[j] = w.b.FlipWord(ro)
		}
		fold.Add(bi, w.flips)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	means = make([]float64, len(ops))
	stderrs = make([]float64, len(ops))
	for j := range ops {
		means[j], stderrs[j] = st.MeanStderr(j)
	}
	return means, stderrs, nil
}

// EstimateBatch is EstimateMany for a single operator.
func (s *Sim) EstimateBatch(op orqcs.SitePauli, shots int, seed int64, workers int) (mean, stderr float64, err error) {
	means, stderrs, err := s.EstimateMany([]orqcs.SitePauli{op}, shots, seed, workers)
	if err != nil {
		return 0, 0, err
	}
	return means[0], stderrs[0], nil
}
