package sinr

import (
	"fmt"
	"math"
)

// Backing selects how a model stores its cross-link tables and resolves
// slot interference.
type Backing int

const (
	// BackDense stores every cross-link term in a flat row-major table
	// (O(n²) memory, the fastest per-slot resolve). It is the zero value.
	BackDense Backing = iota
	// BackIndexed skips cross tables entirely and resolves slots through
	// a spatial grid index: exact summation over near interferers plus a
	// rigorous far-field aggregation bound for the remainder. With
	// FarFloor = 0 the resolver sums every interferer exactly, in the
	// same order as the table path — bit-identical results with O(n)
	// memory instead of O(n²).
	BackIndexed
)

// String names the backing the way run diagnostics report it.
func (b Backing) String() string {
	if b == BackIndexed {
		return "indexed"
	}
	return "dense"
}

// ParseBacking resolves a diagnostic/spec name into a Backing; "" and
// "auto" name the default dense table.
func ParseBacking(s string) (Backing, error) {
	switch s {
	case "", "auto", "dense":
		return BackDense, nil
	case "indexed":
		return BackIndexed, nil
	default:
		return 0, fmt.Errorf("sinr: unknown table backing %q (want dense or indexed)", s)
	}
}

// Options tune a model's storage and resolution strategy without
// changing its physical semantics beyond the documented ε envelope.
// The zero value selects the dense table, bit-identical to the original
// formulas.
type Options struct {
	// Backing selects the cross-table storage / resolution strategy.
	Backing Backing
	// FarFloor is the contribution floor ε of the indexed backing: an
	// interferer whose individual affectance on the tested link is below
	// ε is never summed term by term; it is covered by a per-cell
	// aggregate or the far-field remainder bound instead. The resolver
	// stays sound — the bounded interference estimate Î always satisfies
	// Î ≥ I_true, so every reported success is a true SINR success; only
	// links whose SINR margin is within β·tail of the threshold can flip
	// from success to failure. ε = 0 disables approximation entirely:
	// the indexed resolver then sums all interferers in the table paths'
	// order and is bit-identical to them.
	FarFloor float64
}

// validate rejects option values with no defined semantics.
func (o Options) validate() error {
	if math.IsNaN(o.FarFloor) || math.IsInf(o.FarFloor, 0) || o.FarFloor < 0 || o.FarFloor >= 1 {
		return fmt.Errorf("sinr: FarFloor %v outside [0, 1)", o.FarFloor)
	}
	if o.FarFloor > 0 && o.Backing != BackIndexed {
		return fmt.Errorf("sinr: FarFloor %v requires the indexed backing", o.FarFloor)
	}
	return nil
}

// TableInfo reports the construction-time choices a model made — which
// table backing it uses and with which knobs — so runs can surface them
// in diagnostics.
type TableInfo struct {
	// Backing is "dense" or "indexed".
	Backing string `json:"backing"`
	// FarFloor is the indexed backing's contribution floor ε.
	FarFloor float64 `json:"farFloor,omitempty"`
}

// tableInfo derives the diagnostic record for the chosen backing.
func (o Options) tableInfo() TableInfo {
	info := TableInfo{Backing: o.Backing.String()}
	if o.Backing == BackIndexed {
		info.FarFloor = o.FarFloor
	}
	return info
}
