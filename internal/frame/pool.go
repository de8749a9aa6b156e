package frame

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
)

// SampleRecords runs shots shot lanes through the frame sampler across a
// deterministic worker pool and hands each shot's record table to visit:
// the frame-engine counterpart of the tableau engines' RunShots, and the
// noise.RecordSampler implementation that plugs the engine into
// noise.EstimateLogicalError.
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
	return s.runBatches(shots, seed, workers, func(b *Batch) error {
		for lane := 0; lane < b.n; lane++ {
			if err := visit(b.first+lane, b.Records(lane)); err != nil {
				return err
			}
		}
		return nil
	})
}

// runBatches drives 64-shot batches through a worker pool, calling fold
// after every completed batch (concurrently across workers, each worker
// reusing one Batch). The pool mirrors orqcs.RunShotsRange: an atomic
// batch cursor, first visit error wins, every lane still seeded per shot.
func (s *Sim) runBatches(shots int, seed int64, workers int, fold func(b *Batch) error) error {
	if shots <= 0 {
		return nil
	}
	batches := (shots + 63) / 64
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > batches {
		workers = batches
	}
	runOne := func(b *Batch, bi int) error {
		first := bi * 64
		count := shots - first
		if count > 64 {
			count = 64
		}
		b.Run(first, count, seed)
		return fold(b)
	}
	if workers == 1 {
		b := s.NewBatch()
		for bi := 0; bi < batches; bi++ {
			if err := runOne(b, bi); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := s.NewBatch()
			for !stop.Load() {
				bi := int(next.Add(1)) - 1
				if bi >= batches {
					return
				}
				if err := runOne(b, bi); err != nil {
					errOnce.Do(func() { firstEr = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
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
	st := orqcs.NewStats(len(ops))
	type batchVals struct {
		flips []uint64
		vals  []float64
	}
	var scratch sync.Pool // per-worker value buffers without Batch growth
	scratch.New = func() any {
		return &batchVals{flips: make([]uint64, len(ops)), vals: make([]float64, len(ops))}
	}
	if err := s.runBatches(shots, seed, workers, func(b *Batch) error {
		bv := scratch.Get().(*batchVals)
		defer scratch.Put(bv)
		for j, ro := range ros {
			bv.flips[j] = b.FlipWord(ro)
		}
		for lane := 0; lane < b.n; lane++ {
			for j, ro := range ros {
				v := ro.ref
				if bv.flips[j]>>uint(lane)&1 == 1 {
					v = -v
				}
				bv.vals[j] = v
			}
			st.Add(b.first+lane, bv.vals)
		}
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
