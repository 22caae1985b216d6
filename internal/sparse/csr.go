// Package sparse implements the sparse linear-algebra kernel used by the
// finite-volume grid thermal simulator: a COO assembly builder, CSR storage,
// a Jacobi-preconditioned BiCGSTAB Krylov solver for the non-symmetric
// systems that coolant advection produces, a sparse direct LU (lu.go) and
// the Krylov kernels of the reduced-order transient engine (arnoldi.go).
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// ErrShape reports incompatible dimensions.
var ErrShape = errors.New("sparse: dimension mismatch")

// Builder accumulates matrix entries in coordinate form. Duplicate entries
// are summed when the matrix is finalized, which makes assembly of
// finite-volume stencils trivial.
type Builder struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewBuilder returns an empty builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: NewBuilder invalid shape %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates value v at position (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) outside %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.i = append(b.i, i)
	b.j = append(b.j, j)
	b.v = append(b.v, v)
}

// NNZ returns the number of accumulated (possibly duplicate) entries.
func (b *Builder) NNZ() int { return len(b.v) }

// Build finalizes the builder into CSR form, summing duplicates.
func (b *Builder) Build() *CSR {
	type entry struct {
		i, j int
		v    float64
	}
	entries := make([]entry, len(b.v))
	for k := range b.v {
		entries[k] = entry{b.i[k], b.j[k], b.v[k]}
	}
	sort.Slice(entries, func(a, c int) bool {
		if entries[a].i != entries[c].i {
			return entries[a].i < entries[c].i
		}
		return entries[a].j < entries[c].j
	})
	m := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int, b.rows+1),
	}
	for k := 0; k < len(entries); {
		e := entries[k]
		sum := 0.0
		for k < len(entries) && entries[k].i == e.i && entries[k].j == e.j {
			sum += entries[k].v
			k++
		}
		if sum != 0 {
			m.colIdx = append(m.colIdx, e.j)
			m.values = append(m.values, sum)
			m.rowPtr[e.i+1]++
		}
	}
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	values     []float64
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.values) }

// At returns element (i, j); absent entries are zero. It is O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := sort.SearchInts(m.colIdx[lo:hi], j) + lo
	if idx < hi && m.colIdx[idx] == j {
		return m.values[idx]
	}
	return 0
}

// MulVec computes dst = M·x, allocating when dst is nil.
func (m *CSR) MulVec(dst, x mat.Vec) mat.Vec {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec wants %d elements, got %d", m.cols, len(x)))
	}
	if dst == nil {
		dst = make(mat.Vec, m.rows)
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.values[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
	return dst
}

// MulTransVec computes dst = Mᵀ·x without materializing the transpose
// (scatter over the stored rows), allocating when dst is nil. dst must
// not alias x.
func (m *CSR) MulTransVec(dst, x mat.Vec) mat.Vec {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulTransVec wants %d elements, got %d", m.rows, len(x)))
	}
	if dst == nil {
		dst = make(mat.Vec, m.cols)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			dst[m.colIdx[k]] += m.values[k] * xi
		}
	}
	return dst
}

// Diagonal extracts the main diagonal into a new vector; missing entries
// are zero.
func (m *CSR) Diagonal() mat.Vec {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	d := make(mat.Vec, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Dense converts the matrix into a dense representation (test helper and
// small-system fallback; not for production grids).
func (m *CSR) Dense() *mat.Dense {
	d := mat.NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.values[k])
		}
	}
	return d
}

// RowScale multiplies row i by s[i] in place (used for equilibration).
func (m *CSR) RowScale(s mat.Vec) error {
	if len(s) != m.rows {
		return fmt.Errorf("%w: RowScale length %d, want %d", ErrShape, len(s), m.rows)
	}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			m.values[k] *= s[i]
		}
	}
	return nil
}

// EachEntry visits every stored non-zero in row-major order.
func (m *CSR) EachEntry(visit func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			visit(i, m.colIdx[k], m.values[k])
		}
	}
}

// IsDiagonallyDominant reports whether every row satisfies weak diagonal
// dominance |a_ii| >= Σ_{j≠i} |a_ij|.
func (m *CSR) IsDiagonallyDominant() bool {
	for i := 0; i < m.rows; i++ {
		var diag, off float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if m.colIdx[k] == i {
				diag = math.Abs(m.values[k])
			} else {
				off += math.Abs(m.values[k])
			}
		}
		if diag < off {
			return false
		}
	}
	return true
}
