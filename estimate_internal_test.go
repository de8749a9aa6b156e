package tiscc

import (
	"testing"

	"tiscc/internal/frame"
)

// TestWithFrameSampler pins the facade's sampler choice: a Clifford program
// gets a Pauli-frame sampler, a non-Clifford one keeps the tableau pool (nil
// Sampler), and a caller-supplied Sampler is left alone.
func TestWithFrameSampler(t *testing.T) {
	mem, err := CompileMemoryExperiment(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cliff := CompileNoise(DepolarizingNoise(1e-3), mem.Prog)
	opt, err := withFrameSampler(cliff, LogicalErrorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim, ok := opt.Sampler.(*frame.Sim)
	if !ok {
		t.Fatalf("Clifford program: Sampler %T, want *frame.Sim", opt.Sampler)
	}
	if opt, _ = withFrameSampler(cliff, LogicalErrorOptions{Sampler: sim}); opt.Sampler != sim {
		t.Fatal("caller-supplied Sampler was replaced")
	}

	c, err := ParseCircuit("Prepare_Z 0.2 t=0 d=10000\nY_pi/4 0.2 t=10000 d=10000\nZ_pi/8 0.2 t=20000 d=3000\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileProgram(c)
	if err != nil {
		t.Fatal(err)
	}
	opt, err = withFrameSampler(CompileNoise(DepolarizingNoise(1e-3), prog), LogicalErrorOptions{})
	if err != nil || opt.Sampler != nil {
		t.Fatalf("non-Clifford program: Sampler %v, err %v; want the tableau pool", opt.Sampler, err)
	}
}
