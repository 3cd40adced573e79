package sinr

import (
	"dynsched/internal/interference"
)

// crossTable is a precomputed table over ordered link pairs, indexed as
// (at, src) — by convention "at" is the receiving (charged) link and
// "src" the interfering one. It is built once at model construction so
// the per-slot hot loops never call math.Pow, and is immutable (hence
// safe for concurrent readers) afterwards. The table is a flat
// row-major float64 slice: on a geometric instance every cross term is
// non-zero, so a sparse store of it would save nothing.
type crossTable struct {
	n     int
	dense []float64 // row-major [at*n + src]
}

// buildCrossTable evaluates entry(at, src) for every ordered pair,
// fanning rows out across GOMAXPROCS goroutines. entry must be safe for
// concurrent calls and deterministic; the table stores its results
// verbatim (including ±Inf and sentinel values), so later lookups are
// bit-identical to calling entry directly.
func buildCrossTable(n int, entry func(at, src int) float64) *crossTable {
	t := &crossTable{n: n, dense: make([]float64, n*n)}
	interference.ParallelRows(n, func(at int) {
		row := t.dense[at*n : (at+1)*n]
		for src := 0; src < n; src++ {
			row[src] = entry(at, src)
		}
	})
	return t
}

// at returns the table entry for (at, src).
func (t *crossTable) at(at, src int) float64 {
	return t.dense[at*t.n+src]
}

// row returns the contiguous row for the receiving link. Hot loops grab
// the row once and index it directly, avoiding the per-entry bounds
// arithmetic of at.
func (t *crossTable) row(at int) []float64 {
	return t.dense[at*t.n : (at+1)*t.n]
}
