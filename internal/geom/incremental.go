package geom

import "math"

// Geometry is the frame of a grid index — origin, cell size, and cell
// counts — made explicit and comparable so callers can detect when two
// selections index into the same lattice. Equal Geometry values assign
// every point the same cell coordinates, which is what makes
// incremental index updates (Update) value-transparent: the updated
// index is bit-identical to a fresh FillGeom over the new selection.
type Geometry struct {
	MinX, MinY float64
	Cell       float64
	Cols, Rows int
}

// StableGeometry derives the grid geometry for a selection the way
// FillGeom expects it, but quantized for cross-slot stability: the
// automatic cell size is rounded up to the next power of two and the
// origin is snapped down onto the cell lattice. The result is a pure
// function of the selection's bounding box and size — no history — so
// a simulation slot resolves identically whether it was reached by a
// fresh run or a checkpoint resume. The quantization means consecutive
// selections whose bounding boxes wobble within the same lattice cells
// produce the *same* Geometry, which is what lets the incremental path
// reuse the previous slot's cell assignments.
func StableGeometry(pts []Point, sel []int32) Geometry {
	k := len(sel)
	if k == 0 {
		return Geometry{}
	}
	min, max := pts[sel[0]], pts[sel[0]]
	for _, id := range sel[1:] {
		p := pts[id]
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	cell := quantCell(autoCell(max.X-min.X, max.Y-min.Y, k))
	minX := math.Floor(min.X/cell) * cell
	minY := math.Floor(min.Y/cell) * cell
	return Geometry{
		MinX: minX,
		MinY: minY,
		Cell: cell,
		Cols: int((max.X-minX)/cell) + 1,
		Rows: int((max.Y-minY)/cell) + 1,
	}
}

// quantCell rounds a positive cell size up to the next power of two,
// the quantization that keeps StableGeometry stable under bounding-box
// jitter. Non-finite or non-positive inputs fall back to 1.
func quantCell(c float64) float64 {
	if !(c > 0) || math.IsInf(c, 1) {
		return 1
	}
	return math.Ldexp(1, int(math.Ceil(math.Log2(c))))
}

// FillGeom rebuilds the index over the selected points inside an
// explicit geometry (normally from StableGeometry), reusing all
// internal buffers like Fill. sel must be non-nil and every selected
// point should lie inside the geometry's bounding box (stragglers are
// clamped onto the border cells, as in Fill). Weight sums are
// accumulated in selection order, so for an ascending selection the
// per-cell sums are in ascending id order — the invariant Update
// preserves.
func (g *GridIndex) FillGeom(pts []Point, sel []int32, wt []float64, geo Geometry) {
	k := len(sel)
	g.count = k
	g.geo = geo
	g.hasGeo = true
	g.selCopy = append(g.selCopy[:0], sel...)
	if k == 0 {
		g.cols, g.rows = 0, 0
		g.start = growInt32s(&g.start, 1)
		g.start[0] = 0
		g.ids = g.ids[:0]
		return
	}
	g.minX, g.minY, g.cell = geo.MinX, geo.MinY, geo.Cell
	g.cols, g.rows = geo.Cols, geo.Rows
	ncells := g.cols * g.rows

	start := growInt32s(&g.start, ncells+1)
	for i := range start {
		start[i] = 0
	}
	cellOf := growInt32s(&g.cellOf, k)
	for i := 0; i < k; i++ {
		cx, cy := g.clampCell(pts[sel[i]])
		c := int32(cy*g.cols + cx)
		cellOf[i] = c
		start[c+1]++
	}
	for c := 0; c < ncells; c++ {
		start[c+1] += start[c]
	}
	ids := growInt32s(&g.ids, k)
	for i := 0; i < k; i++ {
		c := cellOf[i]
		ids[start[c]] = sel[i]
		start[c]++
	}
	for c := ncells; c > 0; c-- {
		start[c] = start[c-1]
	}
	start[0] = 0

	cellWt := growFloat64s(&g.cellWt, ncells)
	for i := range cellWt {
		cellWt[i] = 0
	}
	if wt != nil {
		for i := 0; i < k; i++ {
			cellWt[cellOf[i]] += wt[sel[i]]
		}
	}
}

// SelectionDelta returns the size of the symmetric difference between
// two ascending id selections — the number of points that joined plus
// the number that left. Callers use it to decide between an
// incremental Update and a full rebuild.
func SelectionDelta(prev, cur []int32) int {
	d := 0
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] == cur[j]:
			i++
			j++
		case prev[i] < cur[j]:
			d++
			i++
		default:
			d++
			j++
		}
	}
	return d + (len(prev) - i) + (len(cur) - j)
}

// TryUpdate transitions the index to a new ascending selection without
// rebuilding, and reports whether it did. The delta path applies only
// when the index was last built by FillGeom (or a previous TryUpdate),
// its stored geometry equals geo, and the symmetric difference between
// the stored and new selections is at most maxDelta — otherwise it
// returns false and the caller rebuilds with FillGeom. Because the
// index verifies its own precondition against the selection it actually
// holds, a stale caller can never corrupt it.
//
// Surviving points keep their previous cell assignment (no coordinate
// arithmetic at all); only joining points are located with clampCell.
// The bucket arrays are then repacked with a counting sort — integer
// work only — and per-cell weight sums are recomputed from scratch for
// exactly the cells a joining or leaving point touched, in ascending
// member order. The resulting index state (buckets, order, weights) is
// bit-identical to FillGeom(pts, newSel, wt, geo): the delta path is an
// optimization, never a semantic fork. Floating-point work is
// O(|delta| + touched-cell members); the repack is O(|newSel| + cells)
// integer work.
func (g *GridIndex) TryUpdate(pts []Point, newSel []int32, wt []float64, geo Geometry, maxDelta int) bool {
	if !g.hasGeo || g.geo != geo || len(newSel) == 0 {
		return false
	}
	if SelectionDelta(g.selCopy, newSel) > maxDelta {
		return false
	}
	prevSel := g.selCopy
	k := len(newSel)
	ncells := g.cols * g.rows
	g.count = k

	// Touched-cell set, deduplicated with generation stamps. The mark
	// buffer is zero on (re)allocation and g.gen only grows, so stale
	// stamps can never collide with the current generation.
	g.gen++
	if len(g.mark) < ncells {
		g.mark = make([]int64, ncells)
	}
	g.touch = g.touch[:0]

	// Merge the two ascending selections: survivors reuse their cell,
	// joiners are located, both joiners' and leavers' cells are marked.
	cellOf2 := growInt32s(&g.cellOf2, k)
	i, j := 0, 0
	for i < len(prevSel) && j < len(newSel) {
		switch {
		case prevSel[i] == newSel[j]:
			cellOf2[j] = g.cellOf[i]
			i++
			j++
		case prevSel[i] < newSel[j]:
			g.touchCell(g.cellOf[i])
			i++
		default:
			cx, cy := g.clampCell(pts[newSel[j]])
			c := int32(cy*g.cols + cx)
			cellOf2[j] = c
			g.touchCell(c)
			j++
		}
	}
	for ; i < len(prevSel); i++ {
		g.touchCell(g.cellOf[i])
	}
	for ; j < len(newSel); j++ {
		cx, cy := g.clampCell(pts[newSel[j]])
		c := int32(cy*g.cols + cx)
		cellOf2[j] = c
		g.touchCell(c)
	}

	// Counting-sort repack into the swap buffers. newSel is ascending,
	// so each cell's bucket comes out in ascending id order — the same
	// order a fresh fill produces.
	start2 := growInt32s(&g.start2, ncells+1)
	for c := range start2 {
		start2[c] = 0
	}
	for idx := 0; idx < k; idx++ {
		start2[cellOf2[idx]+1]++
	}
	for c := 0; c < ncells; c++ {
		start2[c+1] += start2[c]
	}
	ids2 := growInt32s(&g.ids2, k)
	for idx := 0; idx < k; idx++ {
		c := cellOf2[idx]
		ids2[start2[c]] = newSel[idx]
		start2[c]++
	}
	for c := ncells; c > 0; c-- {
		start2[c] = start2[c-1]
	}
	start2[0] = 0
	g.start, g.start2 = start2, g.start
	g.ids, g.ids2 = ids2, g.ids
	g.cellOf, g.cellOf2 = cellOf2, g.cellOf

	// Re-sum the touched cells from their (ascending) members — the
	// exact accumulation order of a fresh fill, so the sums match bit
	// for bit. Untouched cells kept their membership and their sum.
	if wt != nil {
		for _, c := range g.touch {
			sum := 0.0
			for _, id := range g.ids[g.start[c]:g.start[c+1]] {
				sum += wt[id]
			}
			g.cellWt[c] = sum
		}
	} else {
		for _, c := range g.touch {
			g.cellWt[c] = 0
		}
	}
	g.selCopy = append(g.selCopy[:0], newSel...)
	return true
}

// touchCell adds c to the touched-cell set if not already present this
// generation.
func (g *GridIndex) touchCell(c int32) {
	if g.mark[c] != g.gen {
		g.mark[c] = g.gen
		g.touch = append(g.touch, c)
	}
}
