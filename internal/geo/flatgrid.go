package geo

import "math"

// FlatGrid is a uniform grid over a dense id space (0..n-1) stored in one
// flat cell array, rebuilt wholesale from a position slice. Queries do pure
// index arithmetic — no hashing, no map lookups — which makes it the right
// structure for the radio channel's periodic reindex (positions are
// recaptured for every node anyway). Each cell stores (id, position) pairs
// so the inner distance test runs over a contiguous slice.
type FlatGrid struct {
	minCell    float64 // requested cell edge
	cell       float64 // edge of the last Rebuild, ≥ minCell
	minX, minY float64
	cols, rows int32
	cells      [][]gridItem // cols*rows buckets, storage reused across rebuilds
	used       []int32      // bucket indices filled by the last Rebuild
	n          int
}

type gridItem struct {
	id int32
	p  Point
}

// cellsPerItem caps the bucket count of a sparse field at about
// cellsPerItem·n: Rebuild widens the cell edge to at least
// √(extent area / (cellsPerItem·n)). Sized from the requested edge alone,
// a 10 000-node city field of 113 km at a 101 m edge would take 1.26 M
// bucket headers — 30 MB of pointers every GC scans, nearly all of them
// empty. Queries still visit only the cells their disc overlaps and test
// every candidate exactly, so a wider cell changes no answer, only how many
// candidates a query tests; four cells per item keeps that near the
// requested edge's count wherever items are dense enough to matter.
const cellsPerItem = 4

// NewFlatGrid creates a grid whose cells are at least cellSize metres on a
// side (wider over fields too sparse for that edge; see cellsPerItem).
func NewFlatGrid(cellSize float64) *FlatGrid {
	if cellSize <= 0 {
		panic("geo: non-positive grid cell size")
	}
	return &FlatGrid{minCell: cellSize, cell: cellSize}
}

// Len returns the number of stored items.
func (g *FlatGrid) Len() int { return g.n }

// Rebuild replaces the whole index: item i sits at pts[i]. Cell storage is
// reused, so steady-state rebuilds allocate only when a cell outgrows its
// previous capacity.
func (g *FlatGrid) Rebuild(pts []Point) {
	g.n = len(pts)
	if g.n == 0 {
		g.cols, g.rows = 0, 0
		return
	}
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		if p.X < minX {
			minX = p.X
		} else if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		} else if p.Y > maxY {
			maxY = p.Y
		}
	}
	g.minX, g.minY = minX, minY
	g.cell = max(g.minCell, math.Sqrt((maxX-minX)*(maxY-minY)/float64(cellsPerItem*g.n)))
	g.cols = int32((maxX-minX)/g.cell) + 1
	g.rows = int32((maxY-minY)/g.cell) + 1
	need := int(g.cols) * int(g.rows)
	if need > len(g.cells) {
		g.cells = make([][]gridItem, need)
	}
	// Clear only the buckets the previous build touched: over a sparse
	// field the bucket count scales with area but the touched count is
	// bounded by the item count.
	for _, idx := range g.used {
		g.cells[idx] = g.cells[idx][:0]
	}
	g.used = g.used[:0]
	for i, p := range pts {
		cx := int32((p.X - minX) / g.cell)
		cy := int32((p.Y - minY) / g.cell)
		idx := cy*g.cols + cx
		if len(g.cells[idx]) == 0 {
			g.used = append(g.used, idx)
		}
		g.cells[idx] = append(g.cells[idx], gridItem{id: int32(i), p: p})
	}
}

// WithinSorted appends to dst the ids of all items with Dist(center) <= r,
// excluding exclude (pass a negative id to exclude nothing), sorted
// ascending by id, and returns the extended slice. Items land in each cell
// in ascending id order (Rebuild inserts 0..n-1 sequentially), so the
// result is a handful of merged ascending runs — insertion-sort territory.
func (g *FlatGrid) WithinSorted(center Point, r float64, exclude int32, dst []int32) []int32 {
	return g.WithinSortedLive(center, r, exclude, nil, dst)
}

// WithinSortedLive is WithinSorted restricted to items whose up[id] flag is
// set — the membership-aware neighbourhood query behind churn scenarios.
// The mask is indexed by item id (the dense 0..n-1 space Rebuild was
// given). Masking happens inside the cell scan, before the result ever
// materializes, so a down item is invisible to the caller exactly as if it
// had not been indexed; the query geometry (and therefore the padding
// bound the caller derived) is untouched, because masked items still do
// not move. A nil mask admits every item.
func (g *FlatGrid) WithinSortedLive(center Point, r float64, exclude int32, up []bool, dst []int32) []int32 {
	if g.n == 0 {
		return dst
	}
	start := len(dst)
	r2 := r * r
	cx0 := g.clampCol(int32((center.X - r - g.minX) / g.cell))
	cx1 := g.clampCol(int32((center.X + r - g.minX) / g.cell))
	cy0 := g.clampRow(int32((center.Y - r - g.minY) / g.cell))
	cy1 := g.clampRow(int32((center.Y + r - g.minY) / g.cell))
	for cy := cy0; cy <= cy1; cy++ {
		row := g.cells[cy*g.cols+cx0 : cy*g.cols+cx1+1]
		for _, cell := range row {
			for _, it := range cell {
				if it.id == exclude || (up != nil && !up[it.id]) {
					continue
				}
				if it.p.Dist2(center) <= r2 {
					dst = append(dst, it.id)
				}
			}
		}
	}
	insertionSortIDs(dst[start:])
	return dst
}

func (g *FlatGrid) clampCol(c int32) int32 {
	if c < 0 {
		return 0
	}
	if c >= g.cols {
		return g.cols - 1
	}
	return c
}

func (g *FlatGrid) clampRow(c int32) int32 {
	if c < 0 {
		return 0
	}
	if c >= g.rows {
		return g.rows - 1
	}
	return c
}

// insertionSortIDs sorts a small id slice ascending in place without
// allocating — the regime of grid query results (a handful of ids, one
// short ascending run per visited cell), where insertion sort beats the
// libraries.
func insertionSortIDs(ids []int32) {
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > v {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}
