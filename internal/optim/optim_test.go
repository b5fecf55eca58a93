package optim

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// quadratic f(x) = Σ x², gradient 2x — Adam must drive x to 0.
func gradOf(p *tensor.Matrix) *tensor.Matrix {
	g := p.Clone()
	g.Scale(2)
	return g
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := tensor.NewFrom(1, 3, []float32{5, -7, 2})
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		opt.Step([]*tensor.Matrix{p}, []*tensor.Matrix{gradOf(p)})
	}
	if p.MaxAbs() > 1e-2 {
		t.Fatalf("Adam did not converge: %v", p.Data)
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the first Adam step has magnitude ~LR regardless
	// of gradient scale.
	p := tensor.NewFrom(1, 1, []float32{0})
	g := tensor.NewFrom(1, 1, []float32{1000})
	opt := NewAdam(0.01)
	opt.Step([]*tensor.Matrix{p}, []*tensor.Matrix{g})
	if math.Abs(float64(p.Data[0])+0.01) > 1e-4 {
		t.Fatalf("first Adam step = %v, want ~-0.01", p.Data[0])
	}
}

func TestAdamDeterministicAcrossReplicas(t *testing.T) {
	// Two replicas with identical params and gradients stay bit-identical —
	// the property partition-parallel training relies on after AllReduce.
	pa := tensor.NewFrom(1, 4, []float32{1, 2, 3, 4})
	pb := pa.Clone()
	oa, ob := NewAdam(0.01), NewAdam(0.01)
	for i := 0; i < 50; i++ {
		ga := gradOf(pa)
		gb := gradOf(pb)
		oa.Step([]*tensor.Matrix{pa}, []*tensor.Matrix{ga})
		ob.Step([]*tensor.Matrix{pb}, []*tensor.Matrix{gb})
	}
	for i := range pa.Data {
		if pa.Data[i] != pb.Data[i] {
			t.Fatal("replicas diverged")
		}
	}
}

func TestStepShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdam(0.1).Step([]*tensor.Matrix{tensor.New(1, 2)}, []*tensor.Matrix{tensor.New(2, 1)})
}

func TestStepCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdam(0.1).Step([]*tensor.Matrix{tensor.New(1, 2)}, nil)
}

// TestAdamStateRoundTrip: copying one Adam's moments and step count into a
// fresh Adam must make subsequent steps bit-identical — the property the
// trainer checkpoint relies on.
func TestAdamStateRoundTrip(t *testing.T) {
	mk := func() ([]*tensor.Matrix, []*tensor.Matrix) {
		p := []*tensor.Matrix{tensor.New(3, 4), tensor.New(1, 4)}
		g := []*tensor.Matrix{tensor.New(3, 4), tensor.New(1, 4)}
		for i, m := range p {
			for j := range m.Data {
				m.Data[j] = float32(i+1) * 0.1 * float32(j)
				g[i].Data[j] = float32(j%3) - 1
			}
		}
		return p, g
	}
	pa, ga := mk()
	a := NewAdam(0.01)
	for s := 0; s < 3; s++ {
		a.Step(pa, ga)
	}

	pb, gb := mk()
	b := NewAdam(0.01)
	// Restore: copy weights, moments, and step count from a.
	for i := range pb {
		copy(pb[i].Data, pa[i].Data)
	}
	am, av := a.Moments(pa)
	bm, bv := b.Moments(pb)
	for i := range am {
		copy(bm[i].Data, am[i].Data)
		copy(bv[i].Data, av[i].Data)
	}
	b.SetStepCount(a.StepCount())

	for s := 0; s < 2; s++ {
		a.Step(pa, ga)
		b.Step(pb, gb)
	}
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatalf("param %d[%d]: %v vs %v after state restore", i, j, pa[i].Data[j], pb[i].Data[j])
			}
		}
	}
	if a.StepCount() != 5 || b.StepCount() != 5 {
		t.Fatalf("step counts %d/%d, want 5", a.StepCount(), b.StepCount())
	}
}

// TestAdamMomentsBeforeFirstStep: Moments on a fresh optimizer materializes
// zeroed state (so an epoch-0 checkpoint is possible) and Step then reuses
// that state rather than re-zeroing it.
func TestAdamMomentsBeforeFirstStep(t *testing.T) {
	p := []*tensor.Matrix{tensor.New(2, 2)}
	g := []*tensor.Matrix{tensor.New(2, 2)}
	for j := range g[0].Data {
		g[0].Data[j] = 1
	}
	a := NewAdam(0.01)
	m, v := a.Moments(p)
	if a.StepCount() != 0 {
		t.Fatalf("fresh step count %d", a.StepCount())
	}
	m[0].Data[0] = 0.5 // pretend restored state
	v[0].Data[0] = 0.25
	a.SetStepCount(2)
	a.Step(p, g)
	m2, _ := a.Moments(p)
	if m2[0] != m[0] {
		t.Fatal("Step replaced the materialized moment matrices")
	}
	if a.StepCount() != 3 {
		t.Fatalf("step count %d after restored step, want 3", a.StepCount())
	}
}
