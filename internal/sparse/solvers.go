package sparse

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrNoConvergence reports an iterative solve that did not reach the
// requested tolerance within the iteration budget.
var ErrNoConvergence = errors.New("sparse: iterative solver did not converge")

// ErrBreakdown reports a Krylov-method breakdown (division by a vanishing
// inner product).
var ErrBreakdown = errors.New("sparse: Krylov method breakdown")

// SolveOptions configures the iterative solver.
type SolveOptions struct {
	// Tol is the relative residual tolerance ‖b−Ax‖₂ ≤ Tol·‖b‖₂.
	// Zero selects the default 1e-10.
	Tol float64
	// MaxIter bounds the iteration count. Zero selects 10·n, at least
	// 200.
	MaxIter int
	// X0 optionally provides an initial guess; it is not modified.
	X0 mat.Vec
}

func (o SolveOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-10
	}
	return o.Tol
}

// Result carries solver diagnostics.
type Result struct {
	X          mat.Vec // solution
	Iterations int     // iterations performed
	Residual   float64 // final relative residual
}

// BiCGSTAB solves A·x = b with the Jacobi (diagonal) preconditioned
// stabilized bi-conjugate gradient method. It handles the non-symmetric
// systems produced by coolant advection in the grid simulator.
func BiCGSTAB(a *CSR, b mat.Vec, opts SolveOptions) (Result, error) {
	n := a.Rows()
	if a.Cols() != n {
		return Result{}, fmt.Errorf("%w: BiCGSTAB needs square matrix, got %dx%d", ErrShape, a.Rows(), a.Cols())
	}
	if len(b) != n {
		return Result{}, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
		if maxIter < 200 {
			maxIter = 200
		}
	}
	tol := opts.tol()

	// Jacobi preconditioner M⁻¹ = diag(A)⁻¹.
	diag := a.Diagonal()
	invD := make(mat.Vec, n)
	for i, d := range diag {
		if d == 0 {
			invD[i] = 1 // fall back to identity on zero diagonal rows
		} else {
			invD[i] = 1 / d
		}
	}
	prec := func(dst, v mat.Vec) {
		for i := range v {
			dst[i] = invD[i] * v[i]
		}
	}

	x := make(mat.Vec, n)
	if opts.X0 != nil {
		if len(opts.X0) != n {
			return Result{}, fmt.Errorf("%w: X0 length %d, want %d", ErrShape, len(opts.X0), n)
		}
		copy(x, opts.X0)
	}

	bNorm := b.Norm2()
	if bNorm == 0 {
		return Result{X: x, Iterations: 0, Residual: 0}, nil
	}

	r := make(mat.Vec, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rHat := r.Clone()
	rho, alpha, omega := 1.0, 1.0, 1.0
	v := make(mat.Vec, n)
	p := make(mat.Vec, n)
	s := make(mat.Vec, n)
	t := make(mat.Vec, n)
	pHat := make(mat.Vec, n)
	sHat := make(mat.Vec, n)

	res := r.Norm2() / bNorm
	if res <= tol {
		return Result{X: x, Iterations: 0, Residual: res}, nil
	}

	for iter := 1; iter <= maxIter; iter++ {
		rhoNew := rHat.Dot(r)
		if math.Abs(rhoNew) < 1e-300*bNorm*bNorm {
			return Result{X: x, Iterations: iter, Residual: res},
				fmt.Errorf("%w: rho vanished at iteration %d", ErrBreakdown, iter)
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		prec(pHat, p)
		a.MulVec(v, pHat)
		den := rHat.Dot(v)
		if den == 0 || math.IsNaN(den) {
			return Result{X: x, Iterations: iter, Residual: res},
				fmt.Errorf("%w: (r̂,v) vanished at iteration %d", ErrBreakdown, iter)
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if sn := s.Norm2() / bNorm; sn <= tol {
			x.AddScaled(alpha, pHat)
			return Result{X: x, Iterations: iter, Residual: sn}, nil
		}
		prec(sHat, s)
		a.MulVec(t, sHat)
		tt := t.Dot(t)
		if tt == 0 || math.IsNaN(tt) {
			return Result{X: x, Iterations: iter, Residual: res},
				fmt.Errorf("%w: (t,t) vanished at iteration %d", ErrBreakdown, iter)
		}
		omega = t.Dot(s) / tt
		for i := range x {
			x[i] += alpha*pHat[i] + omega*sHat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		res = r.Norm2() / bNorm
		if res <= tol {
			return Result{X: x, Iterations: iter, Residual: res}, nil
		}
		if omega == 0 {
			return Result{X: x, Iterations: iter, Residual: res},
				fmt.Errorf("%w: omega vanished at iteration %d", ErrBreakdown, iter)
		}
	}
	return Result{X: x, Iterations: maxIter, Residual: res},
		fmt.Errorf("%w: residual %.3g after %d iterations (tol %.3g)", ErrNoConvergence, res, maxIter, tol)
}
