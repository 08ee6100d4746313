package ml

import (
	"math"
	"reflect"
	"testing"
)

// TestFitRidgeQuantizedFitsAndPredicts fits a known linear system and
// demands the quantized model reproduces it: predictions within the
// quantization error, a deterministic refit, and the int16 range used.
func TestFitRidgeQuantizedFitsAndPredicts(t *testing.T) {
	X := [][]float64{
		{1, 0, -1}, {0.5, 2, 0}, {-1, 1, 1}, {2, -0.5, 0.25},
		{0, 0, 1}, {1, 1, 1}, {-0.5, -2, 0.5}, {0.25, 0.75, -1.5},
	}
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = 0.3 + 0.8*x[0] - 0.2*x[1] + 0.05*x[2]
	}
	m, err := FitRidgeQuantized(X, y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.W) != 3 {
		t.Fatalf("got %d weights, want 3", len(m.W))
	}
	// The largest weight maps to the top of the int16 range.
	if m.W[0] != intLinearMaxQ {
		t.Fatalf("largest weight quantized to %d, want %d", m.W[0], intLinearMaxQ)
	}
	for i, x := range X {
		if got := m.Predict(x); math.Abs(got-y[i]) > 0.01 {
			t.Fatalf("row %d: predicted %v, want %v", i, got, y[i])
		}
	}
	again, err := FitRidgeQuantized(X, y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, m) {
		t.Fatalf("refit differs: %+v vs %+v", again, m)
	}
}

// TestFitRidgeQuantizedConstantTarget pins the all-zero-weight case: the
// intercept carries the constant and Scale stays zero.
func TestFitRidgeQuantizedConstantTarget(t *testing.T) {
	X := [][]float64{{1, -1}, {-1, 1}, {0.5, 0.5}, {-0.5, -0.5}}
	y := []float64{0.7, 0.7, 0.7, 0.7}
	m, err := FitRidgeQuantized(X, y, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scale != 0 || m.W[0] != 0 || m.W[1] != 0 {
		t.Fatalf("constant target fitted non-zero weights: %+v", m)
	}
	if got := m.Predict([]float64{3, -2}); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("predicted %v, want 0.7", got)
	}
}

func TestFitRidgeQuantizedRejectsBadInput(t *testing.T) {
	cases := []struct {
		name   string
		X      [][]float64
		y      []float64
		lambda float64
	}{
		{"empty", nil, nil, 1},
		{"length mismatch", [][]float64{{1}, {2}}, []float64{1}, 1},
		{"ragged rows", [][]float64{{1, 2}, {3}}, []float64{1, 2}, 1},
		{"zero lambda", [][]float64{{1}, {2}}, []float64{1, 2}, 0},
	}
	for _, c := range cases {
		if _, err := FitRidgeQuantized(c.X, c.y, c.lambda); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}
