package bvp

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// staircase is the LU factorization with partial pivoting of a
// multiple-shooting system, held row by row over each row's column window.
//
// A row of the system touches at most two adjacent dim-wide blocks of
// unknowns (the first block also the inlet parameters), and rows are
// assembled in nondecreasing order of their first column, so the rows not
// yet pivoted that may hold a nonzero in column k are one contiguous run
// of positions: those whose first column is at most k. Elimination visits
// only that run and, in each row, only the columns of its window, which
// grows when fill lands beyond it.
//
// The arithmetic is mat.LU's restricted to the windows. The pivot of
// column k is the first row of largest magnitude, as there; every element
// receives the same subtractions in the same order; only operations on
// structural zeros are skipped. An entry outside every window is exactly
// +0 in the dense matrix, and an entry not yet eliminated is never −0 (the
// assembly adds onto +0, and a difference is −0 only when its left
// operand is), so for finite systems a skipped operation could at most
// have changed the sign of a zero. The tolerance, the pivots, the factors
// and every solution therefore equal mat.LU's under ==; a solution
// component that is exactly zero may differ in the sign of that zero.
//
// Rows carry their L part when swapped, as mat.LU's rows do, because the
// forward solve walks the final L row by row. A row that pivoting moves
// far below its first column therefore holds a long window, which a
// fixed-width band could not. Windows live in one reusable buffer; a row
// that outgrows its slot moves to a larger one at the buffer's end.
type staircase struct {
	n     int
	slack int // extra columns reserved beyond a new row's window
	buf   []float64
	top   int        // first unused element of buf
	rows  []stairRow // rows by position, swapped as pivoting swaps them
	piv   []int      // piv[i] is the assembled row now at position i

	// Column-ordered copy of L for the transposed solve, built on first
	// use after each factorization: column i holds lval[lptr[i]:lptr[i+1]],
	// the entries of the positions lrow[...] > i whose L part covers
	// column i, in ascending position.
	lready bool
	lptr   []int
	lnext  []int
	lrow   []int
	lval   []float64
	work   mat.Vec
}

// stairRow locates one row: column c, for lo <= c < hi, is buf[base+c];
// every other column is a structural zero. The row's slot has room for
// the columns below lim.
type stairRow struct {
	base, lo, hi, lim int
}

// reset empties the system for n rows, keeping every buffer. A new row
// reserves slack columns beyond its window for fill.
func (f *staircase) reset(n, slack int) {
	f.n, f.slack, f.top, f.lready = n, slack, 0, false
	if cap(f.rows) < n {
		f.rows = make([]stairRow, n)
	}
	f.rows = f.rows[:0]
	if need := n * (2*slack + 1); len(f.buf) < need {
		f.buf = make([]float64, need)
	}
}

// addRow appends the next row, whose nonzeros lie in columns [lo, hi),
// and returns its window zeroed: element c−lo is column c. Rows must come
// in nondecreasing lo.
func (f *staircase) addRow(lo, hi int) []float64 {
	lim := min(hi+f.slack, f.n)
	off := f.alloc(lim - lo)
	i := len(f.rows)
	f.rows = f.rows[:i+1]
	f.rows[i] = stairRow{base: off - lo, lo: lo, hi: hi, lim: lim}
	w := f.buf[off : off+hi-lo]
	clear(w)
	return w
}

// alloc reserves size elements at the end of the buffer, growing it when
// full; rows address the buffer by offset, so growing moves nothing.
func (f *staircase) alloc(size int) int {
	if len(f.buf) < f.top+size {
		grown := make([]float64, 2*(f.top+size))
		copy(grown, f.buf[:f.top])
		f.buf = grown
	}
	off := f.top
	f.top += size
	return off
}

// widen extends r's window to end at column hi, zeroing the new columns;
// a row whose slot is full moves to one twice as wide.
func (f *staircase) widen(r *stairRow, hi int) {
	if hi > r.lim {
		lim := min(max(hi, r.lo+2*(r.lim-r.lo)), f.n)
		off := f.alloc(lim - r.lo)
		copy(f.buf[off:], f.buf[r.base+r.lo:r.base+r.hi])
		r.base, r.lim = off-r.lo, lim
	}
	clear(f.buf[r.base+r.hi : r.base+hi])
	r.hi = hi
}

// at returns element (r, c), zero outside the row's window.
func (f *staircase) at(r stairRow, c int) float64 {
	if c < r.lo || c >= r.hi {
		return 0
	}
	return f.buf[r.base+c]
}

// factor computes P·S = L·U in place over the assembled rows, with
// mat.LU.Refactorize's pivots, tolerance and arithmetic (see staircase).
// A singular system fails with ErrUnsolvable, naming the pivot index and
// magnitude as mat.LU does.
//
//chanmod:noalloc
func (f *staircase) factor() error {
	n := f.n
	rows := f.rows[:n]
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	piv := f.piv[:n]
	for i := range piv {
		piv[i] = i
	}
	f.lready = false

	// The infinity norm: entries outside a window add exact zeros to the
	// dense row sums.
	scale := 0.0
	for _, r := range rows {
		var s float64
		for _, v := range f.buf[r.base+r.lo : r.base+r.hi] {
			s += math.Abs(v)
		}
		if s > scale {
			scale = s
		}
	}
	tol := scale * 1e-300
	if tol == 0 {
		tol = math.SmallestNonzeroFloat64
	}

	act := 0 // positions k..act−1 hold the unpivoted rows starting at or before column k
	for k := 0; k < n; k++ {
		for act < n && rows[act].lo <= k {
			act++
		}
		p, best := k, 0.0
		if k < act {
			best = math.Abs(f.at(rows[k], k))
		}
		for i := k + 1; i < act; i++ {
			if v := math.Abs(f.at(rows[i], k)); v > best {
				best, p = v, i
			}
		}
		if best <= tol || math.IsNaN(best) {
			return fmt.Errorf("%w: %w (pivot %d, magnitude %g)", ErrUnsolvable, mat.ErrSingular, k, best)
		}
		if p != k {
			rows[p], rows[k] = rows[k], rows[p]
			piv[p], piv[k] = piv[k], piv[p]
		}
		pr := rows[k]
		pivVal := f.buf[pr.base+k]
		for i := k + 1; i < act; i++ {
			r := &rows[i]
			if k >= r.hi {
				continue // a structural zero in column k
			}
			m := f.buf[r.base+k] / pivVal
			f.buf[r.base+k] = m
			if m == 0 {
				continue
			}
			if r.hi < pr.hi {
				f.widen(r, pr.hi)
			}
			rk := f.buf[pr.base+k+1 : pr.base+pr.hi]
			ri := f.buf[r.base+k+1:]
			ri = ri[:len(rk)]
			for j, v := range rk {
				ri[j] -= m * v
			}
		}
	}
	return nil
}

// solve computes x with S·x = b from the factorization, by
// mat.LU.SolveWS's substitutions over the windows. x must not alias b.
//
//chanmod:noalloc
func (f *staircase) solve(x, b mat.Vec) {
	n := f.n
	for i, p := range f.piv[:n] {
		x[i] = b[p]
	}
	// Forward substitution with the unit-diagonal L: row i's L part is
	// columns lo..i−1.
	for i, r := range f.rows[:n] {
		s := x[i]
		l := f.buf[r.base+r.lo : r.base+i]
		y := x[r.lo:]
		y = y[:len(l)]
		for j, v := range l {
			s -= v * y[j]
		}
		x[i] = s
	}
	// Backward substitution with U: row i's U part is columns i..hi−1.
	for i := n - 1; i >= 0; i-- {
		r := f.rows[i]
		s := x[i]
		u := f.buf[r.base+i+1 : r.base+r.hi]
		y := x[i+1:]
		y = y[:len(u)]
		for j, v := range u {
			s -= v * y[j]
		}
		x[i] = s / f.buf[r.base+i]
	}
}

// solveTransposed computes x with Sᵀ·x = b from the factorization, by
// mat.LU.SolveTransposed's substitutions: Uᵀ forward, Lᵀ backward, then
// the inverse row permutation. x must not alias b.
//
//chanmod:noalloc
func (f *staircase) solveTransposed(x, b mat.Vec) {
	n := f.n
	f.indexL()
	if cap(f.work) < n {
		f.work = make(mat.Vec, n)
	}
	z := f.work[:n]
	copy(z, b)
	// Uᵀ forward: row j of U is column j of Uᵀ, so each solved z[j] is
	// subtracted from the later entries its row covers. Every entry still
	// receives its terms in ascending j, the order of the dense dot
	// product.
	for j, r := range f.rows[:n] {
		zj := z[j] / f.buf[r.base+j]
		z[j] = zj
		u := f.buf[r.base+j+1 : r.base+r.hi]
		y := z[j+1:]
		y = y[:len(u)]
		for i, v := range u {
			y[i] -= v * zj
		}
	}
	// Lᵀ backward: column i of L, rows ascending, is the dense order.
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		lo, hi := f.lptr[i], f.lptr[i+1]
		vals := f.lval[lo:hi]
		rows := f.lrow[lo:]
		rows = rows[:len(vals)]
		for e, v := range vals {
			s -= v * z[rows[e]]
		}
		z[i] = s
	}
	for i, p := range f.piv[:n] {
		x[p] = z[i]
	}
}

// indexL copies L into column order for the transposed solve, once per
// factorization. Position j's L part covers columns lo..j−1.
func (f *staircase) indexL() {
	if f.lready {
		return
	}
	n := f.n
	rows := f.rows[:n]
	if cap(f.lptr) < n+1 {
		f.lptr = make([]int, n+1)
		f.lnext = make([]int, n)
	}
	ptr, next := f.lptr[:n+1], f.lnext[:n]
	// Entries per column by a difference array over the L spans.
	clear(next)
	for j, r := range rows {
		if r.lo < j {
			next[r.lo]++
			next[j]--
		}
	}
	ptr[0] = 0
	run := 0
	for i := 0; i < n; i++ {
		run += next[i]
		ptr[i+1] = ptr[i] + run
	}
	nnz := ptr[n]
	if cap(f.lrow) < nnz {
		f.lrow = make([]int, nnz)
		f.lval = make([]float64, nnz)
	}
	f.lrow, f.lval = f.lrow[:nnz], f.lval[:nnz]
	copy(next, ptr[:n])
	for j, r := range rows {
		for i, v := range f.buf[r.base+r.lo : r.base+j] {
			c := r.lo + i
			e := next[c]
			next[c]++
			f.lrow[e], f.lval[e] = j, v
		}
	}
	f.lready = true
}
