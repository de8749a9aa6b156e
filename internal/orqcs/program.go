// Compile-once/run-many support: a Program is the lowered form of a circuit
// in which all ion movement and site bookkeeping has been resolved ahead of
// time, so that the per-shot inner loop is pure integer and bit work — no
// map lookups, no sorting, no allocation. This mirrors the compile-then-
// execute split of resource-estimation pipelines: the Monte-Carlo
// verification workflow of TISCC Sec 4 runs hundreds of shots of the same
// circuit, and only the stabilizer updates differ between shots.
package orqcs

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
	"tiscc/internal/pauli"
)

// OpCode names one lowered per-shot operation. Movement and well
// reconfiguration never appear: they are resolved at compile time.
type OpCode uint8

// Lowered operation set.
const (
	OpPrepareZ OpCode = iota
	OpMeasureZ
	OpX
	OpSqrtX
	OpSqrtXDg
	OpY
	OpSqrtY
	OpSqrtYDg
	OpZ
	OpS
	OpSdg
	OpT   // quasi-probability sample of the Z_{π/8} channel
	OpTdg // quasi-probability sample of the Z_{−π/8} channel
	OpZZ
)

// Instr is one lowered instruction, addressed by tableau qubit index.
type Instr struct {
	Q1, Q2 int32 // qubit indices (Q2 = -1 for one-qubit operations)
	Rec    int32 // record index for OpMeasureZ, -1 otherwise
	Op     OpCode
}

// Gap describes the schedule gap preceding one instruction: for each operand
// qubit, the time its ion spent resting since its previous hardware event and
// the number of transport steps (Move events, junction hops included) it
// underwent since its previous lowered instruction. Gaps are computed once at
// lowering time from the circuit's event schedule; the noise subsystem
// derives idle-dephasing and transport-error probabilities from them.
type Gap struct {
	Idle1, Idle2   int64 // resting ns before this instruction (Idle2: ZZ only)
	Moves1, Moves2 int32 // transport steps since the previous instruction
}

// FoldedPrep records a Prepare_Z that was constant-folded away at lowering
// (the qubit's first touch: a fresh tableau qubit is already |0⟩). Slot is
// the instruction-stream position the preparation conceptually precedes.
// The noise subsystem uses these to place preparation-error faults that the
// folding would otherwise silently remove — in surface-code circuits nearly
// every preparation is first-touch.
type FoldedPrep struct {
	Slot int32 // the folded prep precedes instruction index Slot
	Q    int32
}

// Program is the compiled, immutable form of a circuit: safe for concurrent
// use by any number of engines.
type Program struct {
	n       int
	instrs  []Instr
	gaps    []Gap             // parallel to instrs
	folded  []FoldedPrep      // constant-folded first-touch preparations
	finalAt map[grid.Site]int // site → qubit after the last movement
	numT    int

	// Lowering/peephole provenance, reported by Metrics: circuit events in,
	// and instructions removed by each optimization pass (cumulative across
	// chained passes).
	srcEvents    int
	fusedRemoved int
	elimRemoved  int
}

// Compile lowers a circuit into a Program. It runs the movement semantics
// (the walkPositions pass) exactly once: every event is resolved to the
// tableau qubit index of the ion resting at its site at that point in time,
// and the final site-occupancy map is captured for end-of-circuit
// expectation queries.
func Compile(c *circuit.Circuit) (*Program, error) {
	p := &Program{finalAt: map[grid.Site]int{}, srcEvents: len(c.Events)}
	// touched[q] reports whether any state-changing instruction has been
	// emitted for qubit q. Every birth yields a fresh tableau qubit in |0⟩,
	// so a first-touch Prepare_Z is constant-folded away at compile time —
	// in surface-code circuits that is nearly every preparation event.
	var touched []bool
	// Schedule-gap accumulators, indexed by qubit: completion time of the
	// qubit's last event (-1 before birth), resting ns and transport steps
	// accumulated since its previous lowered instruction.
	var (
		freeAt []int64
		restNs []int64
		moveCt []int32
	)
	// accrue charges the rest interval [freeAt, e.Start) to the qubit and
	// marks it busy through the event's end.
	accrue := func(q int, e circuit.Event) {
		if freeAt[q] >= 0 && e.Start > freeAt[q] {
			restNs[q] += e.Start - freeAt[q]
		}
		if end := e.End(); end > freeAt[q] {
			freeAt[q] = end
		}
	}
	// take drains the accumulators into the Gap entry of an instruction.
	take := func(q int) (int64, int32) {
		idle, mv := restNs[q], moveCt[q]
		restNs[q], moveCt[q] = 0, 0
		return idle, mv
	}
	err := walkPositions(c,
		func(s grid.Site) int {
			q := p.n
			p.n++
			p.finalAt[s] = q
			touched = append(touched, false)
			freeAt = append(freeAt, -1)
			restNs = append(restNs, 0)
			moveCt = append(moveCt, 0)
			return q
		},
		func(e circuit.Event, q1, q2 int) error {
			in := Instr{Q1: int32(q1), Q2: -1, Rec: -1}
			var g Gap
			accrue(q1, e)
			if q2 >= 0 {
				accrue(q2, e)
			}
			switch e.Gate {
			case circuit.Move:
				moveCt[q1]++
				delete(p.finalAt, e.S1)
				p.finalAt[e.S2] = q1
				return nil
			case circuit.MergeWells, circuit.SplitWells, circuit.Cool:
				// Trivial on the computational state.
				return nil
			case circuit.PrepareZ:
				if !touched[q1] {
					touched[q1] = true
					// Discard idle/transport accumulated before the folded
					// prep: preparation erases the state it would have
					// dephased, exactly as faults preceding a non-folded
					// OpPrepareZ are wiped by its Reset.
					take(q1)
					p.folded = append(p.folded, FoldedPrep{Slot: int32(len(p.instrs)), Q: int32(q1)})
					return nil // fresh qubit is already |0⟩
				}
				in.Op = OpPrepareZ
			case circuit.MeasureZ:
				in.Op, in.Rec = OpMeasureZ, e.Record
			case circuit.XPi2:
				in.Op = OpX
			case circuit.XPi4:
				in.Op = OpSqrtX
			case circuit.XmPi4:
				in.Op = OpSqrtXDg
			case circuit.YPi2:
				in.Op = OpY
			case circuit.YPi4:
				in.Op = OpSqrtY
			case circuit.YmPi4:
				in.Op = OpSqrtYDg
			case circuit.ZPi2:
				in.Op = OpZ
			case circuit.ZPi4:
				in.Op = OpS
			case circuit.ZmPi4:
				in.Op = OpSdg
			case circuit.ZPi8:
				in.Op = OpT
				p.numT++
			case circuit.ZmPi8:
				in.Op = OpTdg
				p.numT++
			case circuit.ZZ:
				in.Op, in.Q2 = OpZZ, int32(q2)
			default:
				return fmt.Errorf("orqcs: unknown gate %q", e.Gate)
			}
			touched[q1] = true
			g.Idle1, g.Moves1 = take(q1)
			if q2 >= 0 {
				touched[q2] = true
				g.Idle2, g.Moves2 = take(q2)
			}
			p.instrs = append(p.instrs, in)
			p.gaps = append(p.gaps, g)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// NumQubits returns the number of tableau qubits the program addresses.
func (p *Program) NumQubits() int { return p.n }

// NumInstrs returns the length of the lowered instruction stream.
func (p *Program) NumInstrs() int { return len(p.instrs) }

// Instructions exposes the lowered instruction stream. The returned slice is
// the program's backing storage and must be treated as read-only; it lets
// external executors (the noise subsystem's fault-injecting shot loop) step
// the program one instruction at a time via Engine.Exec.
func (p *Program) Instructions() []Instr { return p.instrs }

// Gap returns the schedule gap preceding instruction i (idle time and
// transport steps of the operand qubits since their previous instruction).
func (p *Program) Gap(i int) Gap { return p.gaps[i] }

// FoldedPreps exposes the first-touch preparations removed by constant
// folding (read-only), so noise models can still charge them SPAM errors.
func (p *Program) FoldedPreps() []FoldedPrep { return p.folded }

// Eliminate returns a copy of the program with dead code removed: any
// instruction that can affect neither a measurement record nor any of the
// requested end-of-circuit operators is dropped. Liveness is computed
// backwards over the instruction stream — measurements are roots, a ZZ with
// one live operand keeps both alive, and a Prepare_Z kills liveness (it
// overwrites the qubit's prior state). Every measurement, and therefore every
// record index, is preserved.
//
// Dropping instructions shortens the per-shot RNG draw sequence, so for a
// given seed the eliminated program's sampled outcomes differ from the
// original's; the sampled distribution is unchanged. Dead non-Clifford gates
// are removed too, which shrinks the quasi-probability overhead γ^(2·NumT) of
// estimates over the requested operators without biasing them.
func (p *Program) Eliminate(ops ...SitePauli) (*Program, error) {
	live := make([]bool, p.n)
	for _, op := range ops {
		// Sorted support: which missing site the error names must not
		// depend on map iteration order.
		for _, s := range op.Sites() {
			q, ok := p.finalAt[s]
			if !ok {
				return nil, fmt.Errorf("orqcs: no ion at site %v", s)
			}
			live[q] = true
		}
	}
	keep := make([]bool, len(p.instrs))
	kept := 0
	for i := len(p.instrs) - 1; i >= 0; i-- {
		in := &p.instrs[i]
		q1 := int(in.Q1)
		switch in.Op {
		case OpMeasureZ:
			keep[i] = true
			live[q1] = true
		case OpPrepareZ:
			if live[q1] {
				keep[i] = true
				live[q1] = false
			}
		case OpZZ:
			q2 := int(in.Q2)
			if live[q1] || live[q2] {
				keep[i] = true
				live[q1], live[q2] = true, true
			}
		default:
			keep[i] = live[q1]
		}
		if keep[i] {
			kept++
		}
	}
	out := &Program{
		n:       p.n,
		instrs:  make([]Instr, 0, kept),
		gaps:    make([]Gap, 0, kept),
		finalAt: p.finalAt, // immutable, shared

		srcEvents:    p.srcEvents,
		fusedRemoved: p.fusedRemoved,
		elimRemoved:  p.elimRemoved + (len(p.instrs) - kept),
	}
	// keptBefore[i] counts surviving instructions before original index i,
	// remapping folded-prep slots onto the filtered stream.
	keptBefore := make([]int32, len(p.instrs)+1)
	for i := range p.instrs {
		keptBefore[i+1] = keptBefore[i]
		if !keep[i] {
			continue
		}
		keptBefore[i+1]++
		out.instrs = append(out.instrs, p.instrs[i])
		out.gaps = append(out.gaps, p.gaps[i])
		if op := p.instrs[i].Op; op == OpT || op == OpTdg {
			out.numT++
		}
	}
	out.folded = make([]FoldedPrep, len(p.folded))
	for i, f := range p.folded {
		out.folded[i] = FoldedPrep{Slot: keptBefore[f.Slot], Q: f.Q}
	}
	return out, nil
}

// NumTGates returns the number of non-Clifford (±π/8) gates; the
// quasi-probability sampling overhead of an estimate is γ^(2·NumTGates).
func (p *Program) NumTGates() int { return p.numT }

// Clifford reports whether the program is free of non-Clifford gates (one
// shot then yields exact expectations).
func (p *Program) Clifford() bool { return p.numT == 0 }

// QubitAt resolves the tableau qubit of the ion resting at s after the
// program has run.
func (p *Program) QubitAt(s grid.Site) (int, bool) {
	q, ok := p.finalAt[s]
	return q, ok
}

// PauliFor builds the tableau-indexed Pauli string for a site-keyed
// operator, resolved against the program's final ion positions. The result
// is immutable under engine runs, so it can be built once and evaluated
// against every shot.
func (p *Program) PauliFor(op SitePauli) (*pauli.String, error) {
	ps := pauli.NewString(p.n)
	// Sorted support: which missing site the error names must not depend on
	// map iteration order.
	for _, s := range op.Sites() {
		q, ok := p.finalAt[s]
		if !ok {
			return nil, fmt.Errorf("orqcs: no ion at site %v", s)
		}
		ps.SetKind(q, op[s])
	}
	return ps, nil
}

// --- Deterministic per-shot seeding -----------------------------------------

// splitmix64 is the SplitMix64 output function (Steele, Lea & Flood 2014).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ShotSeed derives the RNG seed of one shot from a base seed. The derivation
// depends only on (base, shot), never on worker scheduling, so multi-shot
// runs are reproducible for any worker count.
func ShotSeed(base int64, shot int) int64 {
	return int64(splitmix64(uint64(base) + 0x9E3779B97F4A7C15*uint64(shot)))
}

// --- Multi-shot runtime -------------------------------------------------------
//
// Every multi-shot run — tableau shots here and in internal/noise, 64-lane
// batches in internal/frame — goes through RunPool, and every estimate folds
// its per-unit results through a Fold. Together they are the shot-order
// contract: unit i is seeded from its index alone (ShotSeed), and results
// are folded in index order, so no estimate depends on the worker count or
// on scheduling.

// RunPool runs units [0, n) on a pool of worker goroutines, calling
// run(state, unit) exactly once per claimed unit. Each worker owns the state
// newState builds for it (a tableau engine, a frame batch), reused across
// its units. workers ≤ 0 selects GOMAXPROCS, and no more workers than units
// are started. Workers claim units from one atomic cursor in index order;
// the first error run returns wins, stops further claims and is returned
// (units already claimed still finish). Which worker runs which unit depends
// on scheduling, so run must derive its result from the unit index alone and
// fold it in order through a Fold.
func RunPool[S any](n, workers int, newState func() S, run func(state S, unit int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var (
		next     atomic.Int64
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			state := newState()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(state, i); err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Fold applies a payload fold to units 0, 1, 2, … in strict index order,
// whatever order the pool's workers deliver them in. A unit that arrives
// ahead of the contiguous prefix is buffered until the prefix reaches it, so
// the fold sequence — every float sum, every early-stop decision — is the
// same for any worker count. The buffer holds the arrivals ahead of the
// slowest unit still in flight, so its size depends on how far the other
// workers run ahead, not on the worker count alone (a frame worker delivers
// 64 shots per batch). Safe for concurrent use; the fold function runs under
// the Fold's lock.
type Fold[T any] struct {
	mu      sync.Mutex
	next    int // next unit to fold
	stopped bool
	pending map[int]T
	spare   []T // recycled buffers (clone only)
	fold    func(unit int, v T) (stop bool)
	clone   func(dst, v T) T
}

// NewFold returns a Fold that calls fold(unit, v) for each unit in index
// order until fold reports stop. clone, if non-nil, copies a payload that
// must be buffered into dst — a recycled buffer, or T's zero value — and
// returns the copy; it is for payloads whose storage the caller reuses once
// Add returns. With clone nil, payloads are buffered as they are.
func NewFold[T any](fold func(unit int, v T) (stop bool), clone func(dst, v T) T) *Fold[T] {
	return &Fold[T]{pending: make(map[int]T), fold: fold, clone: clone}
}

// Add delivers one unit's payload and reports whether the fold has stopped.
// Once it has, Add neither folds nor buffers: units past the stopping point
// are discarded uncounted. Every unit below the stopping point must be
// delivered exactly once.
func (f *Fold[T]) Add(unit int, v T) (stopped bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return true
	}
	if unit != f.next {
		if f.clone != nil {
			var buf T
			if n := len(f.spare); n > 0 {
				buf = f.spare[n-1]
				f.spare = f.spare[:n-1]
			}
			v = f.clone(buf, v)
		}
		f.pending[unit] = v
		return false
	}
	f.stopped = f.fold(unit, v)
	f.next++
	for !f.stopped {
		buf, ok := f.pending[f.next]
		if !ok {
			break
		}
		delete(f.pending, f.next)
		f.stopped = f.fold(f.next, buf)
		f.next++
		if f.clone != nil {
			f.spare = append(f.spare, buf)
		}
	}
	return f.stopped
}

// ShotFunc executes one shot on an engine with the given derived shot seed.
// The noise subsystem supplies fault-injecting runners; nil means the plain
// noiseless Engine.RunShot.
type ShotFunc func(e *Engine, shotSeed int64)

// RunShots executes shots runs of the program on RunPool. Each worker owns
// one reusable Engine (compiled state, preallocated tableau); shot i always
// runs with ShotSeed(seed, i), so results are independent of the worker
// count. workers ≤ 0 selects GOMAXPROCS.
//
// visit, if non-nil, is called after every completed shot with the engine
// that ran it. Calls happen concurrently from different workers (always for
// distinct shot indices), and the engine's state — records included — is
// only valid until that worker starts its next shot: copy anything that
// must outlive the call. A non-nil error from visit stops the run.
func RunShots(p *Program, shots int, seed int64, workers int, visit func(shot int, e *Engine) error) error {
	return RunPool(shots, workers, func() *Engine { return NewFromProgram(p) }, func(e *Engine, i int) error {
		e.RunShot(ShotSeed(seed, i))
		if visit == nil {
			return nil
		}
		return visit(i, e)
	})
}

// --- Streaming shot statistics ----------------------------------------------

// kahan is a Neumaier-compensated accumulator: adding values in a fixed
// order yields a bit-reproducible sum regardless of their magnitudes.
type kahan struct{ sum, c float64 }

func (k *kahan) add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

func (k *kahan) value() float64 { return k.sum + k.c }

// Stats folds per-shot operator values into running compensated sums
// without materializing a per-shot slice: memory is O(operators), not
// O(shots). Fed in shot order through a Fold, it yields means and standard
// errors bit-identical for every worker count and every engine (EstimateMany
// here, the Pauli-frame engine's EstimateMany). Not safe for concurrent use.
type Stats struct {
	sum, sumSq []kahan
	count      int
}

// NewStats returns a reduction over nOps per-shot values.
func NewStats(nOps int) *Stats {
	return &Stats{sum: make([]kahan, nOps), sumSq: make([]kahan, nOps)}
}

// Add folds the values of the next shot.
func (s *Stats) Add(vals []float64) {
	for j, x := range vals {
		s.sum[j].add(x)
		s.sumSq[j].add(x * x)
	}
	s.count++
}

// MeanStderr reduces operator j's running sums to (mean, standard error of
// the mean).
func (s *Stats) MeanStderr(j int) (mean, stderr float64) {
	n := float64(s.count)
	if s.count == 0 {
		return 0, 0
	}
	sum, sumSq := s.sum[j].value(), s.sumSq[j].value()
	mean = sum / n
	if s.count > 1 {
		varr := (sumSq - sum*sum/n) / (n - 1)
		if varr < 0 {
			varr = 0
		}
		stderr = math.Sqrt(varr / n)
	}
	return mean, stderr
}

// --- Batch estimation --------------------------------------------------------

// EstimateBatch Monte-Carlo-estimates ⟨op⟩ over a compiled program: the
// compile-once/run-many counterpart of Estimate. The operator is resolved to
// qubit indices once, every worker reuses its engine state across shots, and
// the streaming reduction folds values in shot order so that the returned
// mean and standard error are bit-identical for every worker count.
func EstimateBatch(p *Program, op SitePauli, shots int, seed int64, workers int) (mean, stderr float64, err error) {
	means, stderrs, err := estimateMany("EstimateBatch", p, nil, []SitePauli{op}, shots, seed, workers)
	if err != nil {
		return 0, 0, err
	}
	return means[0], stderrs[0], nil
}

// EstimateMany estimates several Pauli operators over the same compiled
// program in a single multi-shot pass: every shot is simulated once and all
// operators are evaluated against its final state, so the per-shot
// simulation cost is paid once instead of once per operator. Results are
// deterministic in (shots, seed) for every worker count, and memory is
// independent of the shot count (streaming Kahan reduction).
func EstimateMany(p *Program, ops []SitePauli, shots int, seed int64, workers int) (means, stderrs []float64, err error) {
	return estimateMany("EstimateMany", p, nil, ops, shots, seed, workers)
}

// EstimateManyFunc is EstimateMany with a pluggable per-shot executor: a
// non-nil run (e.g. a noise schedule's fault-injecting shot loop) replaces
// the noiseless Engine.RunShot.
func EstimateManyFunc(p *Program, run ShotFunc, ops []SitePauli, shots int, seed int64, workers int) (means, stderrs []float64, err error) {
	return estimateMany("EstimateManyFunc", p, run, ops, shots, seed, workers)
}

// estimateMany is the shared body of the Estimate entry points; entry names
// the exported function called, for its error messages.
func estimateMany(entry string, p *Program, run ShotFunc, ops []SitePauli, shots int, seed int64, workers int) (means, stderrs []float64, err error) {
	if shots <= 0 {
		return nil, nil, fmt.Errorf("orqcs: %s needs shots ≥ 1, got %d", entry, shots)
	}
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("orqcs: no operators to estimate")
	}
	pss := make([]*pauli.String, len(ops))
	for j, op := range ops {
		if pss[j], err = p.PauliFor(op); err != nil {
			return nil, nil, err
		}
	}
	if run == nil {
		run = (*Engine).RunShot
	}
	st := NewStats(len(ops))
	fold := NewFold(func(_ int, vals []float64) bool {
		st.Add(vals)
		return false
	}, func(dst, vals []float64) []float64 { return append(dst[:0], vals...) })
	if err := RunPool(shots, workers, func() *Engine { return NewFromProgram(p) }, func(e *Engine, i int) error {
		run(e, ShotSeed(seed, i))
		vals := e.scratch(len(ops))
		for j, ps := range pss {
			vals[j] = e.weight * e.tb.ExpectationValue(ps)
		}
		fold.Add(i, vals)
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
