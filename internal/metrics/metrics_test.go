package metrics

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestAccuracyBasic(t *testing.T) {
	logits := tensor.NewFrom(3, 2, []float32{
		2, 1, // pred 0
		0, 5, // pred 1
		3, 4, // pred 1
	})
	labels := []int32{0, 1, 0}
	got := Accuracy(logits, labels, []bool{true, true, true})
	if math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("accuracy = %v", got)
	}
}

func TestAccuracyRespectsMask(t *testing.T) {
	logits := tensor.NewFrom(2, 2, []float32{2, 1, 0, 5})
	labels := []int32{1, 1} // row 0 wrong, row 1 right
	if got := Accuracy(logits, labels, []bool{false, true}); got != 1 {
		t.Fatalf("masked accuracy = %v", got)
	}
	if got := Accuracy(logits, labels, []bool{false, false}); got != 0 {
		t.Fatalf("empty mask accuracy = %v", got)
	}
}

func TestMicroF1Perfect(t *testing.T) {
	logits := tensor.NewFrom(2, 3, []float32{5, -5, 5, -5, 5, -5})
	targets := tensor.NewFrom(2, 3, []float32{1, 0, 1, 0, 1, 0})
	if got := MicroF1Of(MicroF1Counts(logits, targets, []bool{true, true})); got != 1 {
		t.Fatalf("perfect F1 = %v", got)
	}
}

func TestMicroF1KnownValue(t *testing.T) {
	// tp=1 (pred+ actual+), fp=1 (pred+ actual-), fn=1 (pred- actual+).
	logits := tensor.NewFrom(1, 3, []float32{5, 5, -5})
	targets := tensor.NewFrom(1, 3, []float32{1, 0, 1})
	got := MicroF1Of(MicroF1Counts(logits, targets, []bool{true}))
	want := 2.0 * 1 / (2*1 + 1 + 1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("F1 = %v, want %v", got, want)
	}
}

func TestMicroF1EmptyIsZero(t *testing.T) {
	logits := tensor.NewFrom(1, 2, []float32{-1, -1})
	targets := tensor.New(1, 2)
	if got := MicroF1Of(MicroF1Counts(logits, targets, []bool{true})); got != 0 {
		t.Fatalf("no-positive F1 = %v", got)
	}
}

func TestCurve(t *testing.T) {
	var c Curve
	if c.Best() != 0 || c.Final() != 0 {
		t.Fatal("empty curve must report 0")
	}
	c.Add(1, 0.5)
	c.Add(2, 0.9)
	c.Add(3, 0.7)
	if c.Best() != 0.9 || c.Final() != 0.7 {
		t.Fatalf("best=%v final=%v", c.Best(), c.Final())
	}
	if len(c.Epochs) != 3 {
		t.Fatal("epochs not recorded")
	}
}

// TestAccuracyTiesAreFirstWins pins the tie-break: equal logits resolve to
// the lowest class index, deterministically, so reported accuracy cannot
// drift between runs or builds.
func TestAccuracyTiesAreFirstWins(t *testing.T) {
	logits := tensor.NewFrom(2, 3, []float32{
		7, 7, 7, // three-way tie -> class 0
		1, 4, 4, // tie between 1 and 2 -> class 1
	})
	if got := Accuracy(logits, []int32{0, 1}, []bool{true, true}); got != 1 {
		t.Fatalf("tie-break accuracy = %v, want 1 (first index wins)", got)
	}
	if got := Accuracy(logits, []int32{2, 2}, []bool{true, true}); got != 0 {
		t.Fatalf("tie-break accuracy = %v, want 0 (later index must not win)", got)
	}
}

// TestAccuracyNaNRows: NaN logits never win the argmax, and an all-NaN row
// is wrong no matter the label — a diverged model must score 0, not pick
// class 0 and collect ~1/nClasses by accident.
func TestAccuracyNaNRows(t *testing.T) {
	nan := float32(math.NaN())
	logits := tensor.NewFrom(3, 3, []float32{
		nan, nan, nan, // all NaN: wrong even though label is 0
		nan, 2, 1, // NaN must not mask the real winner (class 1)
		3, nan, 2, // NaN in a losing slot changes nothing
	})
	labels := []int32{0, 1, 0}
	got := Accuracy(logits, labels, []bool{true, true, true})
	if math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("NaN-row accuracy = %v, want 2/3", got)
	}
	// Fully diverged: every row all-NaN, every label class 0 — the old
	// argmax would have scored this 100%.
	diverged := tensor.NewFrom(2, 2, []float32{nan, nan, nan, nan})
	if got := Accuracy(diverged, []int32{0, 0}, []bool{true, true}); got != 0 {
		t.Fatalf("all-NaN accuracy = %v, want 0", got)
	}
}

// TestMicroF1EdgeRows covers the mask/NaN edges of MicroF1Counts: masked rows
// contribute nothing, and NaN logits read as not-predicted (NaN > 0 is
// false) so they land in fn when the label is positive.
func TestMicroF1EdgeRows(t *testing.T) {
	nan := float32(math.NaN())
	logits := tensor.NewFrom(3, 2, []float32{
		5, -5, // masked out entirely
		nan, nan, // NaN: no positive predictions
		5, -5, // tp=1 on col 0
	})
	targets := tensor.NewFrom(3, 2, []float32{
		1, 1,
		1, 0, // the NaN prediction misses this positive: fn=1
		1, 0,
	})
	got := MicroF1Of(MicroF1Counts(logits, targets, []bool{false, true, true}))
	want := 2.0 * 1 / (2*1 + 0 + 1) // tp=1, fp=0, fn=1
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("edge-row F1 = %v, want %v", got, want)
	}
	if got := MicroF1Of(MicroF1Counts(logits, targets, []bool{false, false, false})); got != 0 {
		t.Fatalf("empty-mask F1 = %v, want 0", got)
	}
}
