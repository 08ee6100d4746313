package ml

import (
	"fmt"
	"math"
)

// IntLinear is a quantized linear regressor: prediction is
//
//	y = Bias + Σ_i float64(W[i]) * Scale * x[i]
//
// with weights stored as int16 fixed-point values (symmetric quantization,
// the same scheme quantizeTensor uses for the LSTM study). The quantized
// weights are the model — training quantizes once and every prediction and
// calibration residual is computed against the quantized weights, so
// deployment error is already inside the calibrated bounds.
type IntLinear struct {
	// W holds the quantized weights, one per input feature.
	W []int16
	// Scale converts a quantized weight back to its real value. Zero when
	// every weight is zero.
	Scale float64
	// Bias is the unquantized intercept (a single float64 costs nothing and
	// keeps the prediction centered).
	Bias float64
}

// Predict evaluates the model on a feature vector of len(W) values.
func (m *IntLinear) Predict(x []float64) float64 {
	y := m.Bias
	for i, w := range m.W {
		y += float64(w) * m.Scale * x[i]
	}
	return y
}

// intLinearBits is the quantization width: int16 symmetric, so weights land
// in [-32767, 32767] and Scale = maxAbs/32767.
const intLinearMaxQ = 32767

// FitRidgeQuantized fits ridge regression (L2 penalty lambda on the weights,
// none on the intercept) to rows X and targets y, then quantizes the weights
// to int16 fixed point. The solve is plain Gaussian elimination with partial
// pivoting over the (d+1)-dimensional normal equations — deterministic: the
// same rows in the same order produce bit-identical models on every run,
// machine, and worker count (callers assemble rows by index, never by
// completion order).
//
// Rows are expected to be standardized (zero mean, unit variance on the fit
// set); the caller owns the standardization statistics. lambda <= 0 is
// rejected: the penalty is what keeps the system invertible when features
// are collinear or constant-zero after standardization.
func FitRidgeQuantized(X [][]float64, y []float64, lambda float64) (*IntLinear, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("ml: ridge fit needs matching non-empty X (%d rows) and y (%d)", n, len(y))
	}
	d := len(X[0])
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("ml: ridge fit row %d has %d features, want %d", i, len(row), d)
		}
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("ml: ridge fit needs lambda > 0, got %g", lambda)
	}

	// Normal equations over [features..., bias]: A = X'X + λI (bias
	// unpenalized), b = X'y. d is tens of features, so the O(d³) solve is
	// microseconds.
	dim := d + 1
	A := make([][]float64, dim)
	for i := range A {
		A[i] = make([]float64, dim)
	}
	b := make([]float64, dim)
	for r, row := range X {
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				A[i][j] += row[i] * row[j]
			}
			A[i][d] += row[i]
			b[i] += row[i] * y[r]
		}
		b[d] += y[r]
	}
	for i := 0; i < d; i++ {
		A[i][i] += lambda
		for j := 0; j < i; j++ {
			A[i][j] = A[j][i]
		}
		A[d][i] = A[i][d]
	}
	A[d][d] = float64(n)

	w, err := solveLinear(A, b)
	if err != nil {
		return nil, err
	}

	m := &IntLinear{W: make([]int16, d), Bias: w[d]}
	maxAbs := 0.0
	for i := 0; i < d; i++ {
		if a := math.Abs(w[i]); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 0 {
		m.Scale = maxAbs / intLinearMaxQ
		for i := 0; i < d; i++ {
			q := math.Round(w[i] / m.Scale)
			if q > intLinearMaxQ {
				q = intLinearMaxQ
			} else if q < -intLinearMaxQ {
				q = -intLinearMaxQ
			}
			m.W[i] = int16(q)
		}
	}
	return m, nil
}

// solveLinear solves Ax = b in place by Gaussian elimination with partial
// pivoting. Pivot order depends only on the matrix values, so the solve is
// deterministic.
func solveLinear(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(A[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("ml: singular system at column %d", col)
		}
		A[col], A[pivot] = A[pivot], A[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / A[col][col]
		for r := col + 1; r < n; r++ {
			f := A[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= A[r][c] * x[c]
		}
		x[r] = s / A[r][r]
	}
	return x, nil
}
