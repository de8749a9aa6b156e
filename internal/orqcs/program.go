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

// --- Multi-shot runners ------------------------------------------------------

// ShotFunc executes one shot on an engine with the given derived shot seed.
// The noise subsystem supplies fault-injecting runners; nil means the plain
// noiseless Engine.RunShot.
type ShotFunc func(e *Engine, shotSeed int64)

// RunShots executes shots runs of the program across a worker pool. Each
// worker owns one reusable Engine (compiled state, preallocated tableau);
// shot i always runs with ShotSeed(seed, i), so results are independent of
// the worker count. workers ≤ 0 selects GOMAXPROCS.
//
// visit, if non-nil, is called after every completed shot with the engine
// that ran it. Calls happen concurrently from different workers (always for
// distinct shot indices), and the engine's state — records included — is
// only valid until that worker starts its next shot: copy anything that
// must outlive the call. A non-nil error from visit stops the run.
func RunShots(p *Program, shots int, seed int64, workers int, visit func(shot int, e *Engine) error) error {
	return RunShotsRange(p, 0, shots, seed, workers, nil, visit)
}

// RunShotsRange is RunShots over the global shot indices [first, first+count):
// shot i still runs with ShotSeed(seed, i), so a run split into consecutive
// ranges is shot-for-shot identical to one contiguous run — the mechanism
// behind deterministic early stopping. run, if non-nil, replaces the
// noiseless Engine.RunShot as the per-shot executor (fault injection hooks
// in here).
func RunShotsRange(p *Program, first, count int, seed int64, workers int, run ShotFunc, visit func(shot int, e *Engine) error) error {
	if count <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	oneShot := func(e *Engine, i int) {
		if run == nil {
			e.RunShot(ShotSeed(seed, i))
		} else {
			run(e, ShotSeed(seed, i))
		}
	}
	if workers == 1 {
		e := NewFromProgram(p)
		for i := first; i < first+count; i++ {
			oneShot(e, i)
			if visit != nil {
				if err := visit(i, e); err != nil {
					return err
				}
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
			e := NewFromProgram(p)
			for !stop.Load() {
				i := first + int(next.Add(1)) - 1
				if i >= first+count {
					return
				}
				oneShot(e, i)
				if visit != nil {
					if err := visit(i, e); err != nil {
						errOnce.Do(func() { firstEr = err })
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
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

// streamStats folds per-shot operator values into running compensated sums in
// strict shot order, without materializing a per-shot slice: memory is
// O(workers), not O(shots). Workers claim shots in index order and hold at
// most one each, so at most `workers` out-of-order values are ever pending;
// they are buffered until the contiguous prefix catches up, which keeps the
// fold sequence — and therefore every float — identical for any worker count.
// (noise.stopFold mirrors this ordering mechanism for its early-stopping
// decision; a change to the invariant here must be mirrored there.)
type streamStats struct {
	mu         sync.Mutex
	nOps       int
	next       int // next shot index to fold
	pending    map[int][]float64
	free       [][]float64 // recycled pending buffers
	sum, sumSq []kahan
	count      int
}

func newStreamStats(nOps int) *streamStats {
	return &streamStats{
		nOps:    nOps,
		pending: make(map[int][]float64),
		sum:     make([]kahan, nOps),
		sumSq:   make([]kahan, nOps),
	}
}

// add folds the values of one shot (vals is copied if it must be buffered;
// callers may reuse it immediately).
func (st *streamStats) add(shot int, vals []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if shot != st.next {
		buf := vals
		if n := len(st.free); n > 0 {
			buf = st.free[n-1]
			st.free = st.free[:n-1]
			copy(buf, vals)
		} else {
			buf = append([]float64(nil), vals...)
		}
		st.pending[shot] = buf
		return
	}
	st.fold(vals)
	for {
		buf, ok := st.pending[st.next]
		if !ok {
			return
		}
		delete(st.pending, st.next)
		st.fold(buf)
		st.free = append(st.free, buf)
	}
}

func (st *streamStats) fold(vals []float64) {
	for j, x := range vals {
		st.sum[j].add(x)
		st.sumSq[j].add(x * x)
	}
	st.next++
	st.count++
}

// meanStderr reduces operator j's running sums to (mean, standard error of
// the mean).
func (st *streamStats) meanStderr(j int) (mean, stderr float64) {
	n := float64(st.count)
	if st.count == 0 {
		return 0, 0
	}
	sum, sumSq := st.sum[j].value(), st.sumSq[j].value()
	mean = sum / n
	if st.count > 1 {
		varr := (sumSq - sum*sum/n) / (n - 1)
		if varr < 0 {
			varr = 0
		}
		stderr = math.Sqrt(varr / n)
	}
	return mean, stderr
}

// Stats is the exported face of the streaming reduction, for multi-shot
// executors that live outside this package (the Pauli-frame engine): feeding
// the same per-shot values through Add yields means and standard errors
// bit-identical to EstimateMany's, for any worker count.
type Stats struct{ st *streamStats }

// NewStats returns a reduction over nOps per-shot values.
func NewStats(nOps int) *Stats { return &Stats{st: newStreamStats(nOps)} }

// Add folds the values of one shot. Shots may arrive out of order (vals is
// copied if it must be buffered; callers may reuse it immediately), but every
// index from 0 upward must eventually arrive exactly once.
func (s *Stats) Add(shot int, vals []float64) { s.st.add(shot, vals) }

// Count returns the number of shots folded into the contiguous prefix.
func (s *Stats) Count() int {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.count
}

// MeanStderr reduces operator j's sums to (mean, standard error of the mean).
func (s *Stats) MeanStderr(j int) (mean, stderr float64) { return s.st.meanStderr(j) }

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
	st := newStreamStats(len(ops))
	if err := RunShotsRange(p, 0, shots, seed, workers, run, func(i int, e *Engine) error {
		vals := e.scratch(len(ops))
		for j, ps := range pss {
			vals[j] = e.weight * e.tb.ExpectationValue(ps)
		}
		st.add(i, vals)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	means = make([]float64, len(ops))
	stderrs = make([]float64, len(ops))
	for j := range ops {
		means[j], stderrs[j] = st.meanStderr(j)
	}
	return means, stderrs, nil
}
