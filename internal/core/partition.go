package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Partition errors.
var (
	// ErrNoSlices is returned when a partition with zero slices is requested.
	ErrNoSlices = errors.New("core: partition needs at least one slice")
	// ErrBadBoundary is returned when interior boundaries are not strictly
	// increasing inside (0,1).
	ErrBadBoundary = errors.New("core: boundaries must be strictly increasing in (0,1)")
)

// Partition is an ordered set of adjacent slices (l_1,u_1],(l_2,u_2],...
// covering the whole normalized rank domain (0,1]. Per the paper (§3.2)
// the partition is global knowledge: every node knows it.
//
// Lookups are O(1) and exact. The interior boundaries sit behind a
// uniform grid over (0,1] with about four cells per slice; each cell
// records how many boundaries lie below it. Index multiplies r by the
// cell count, loads that cell's count and steps over the few
// boundaries inside the cell, comparing r against the stored
// boundaries themselves. The grid only says where to look, so Index
// returns, for every float64 r — r ≤ 0, r > 1, ±Inf and NaN included —
// the same i as a binary search for the first boundary with
// bounds[i] >= r, and NearestBoundary the same boundary and distance
// bit for bit. Boundaries packed into one cell cost a linear step
// over that cell.
//
// A Partition is one pointer to an immutable table, so the protocol
// nodes that each hold a copy share it. The zero value is the single
// slice (0,1]: Len is 1 and NearestBoundary reports no boundary.
type Partition struct {
	// g is nil for the single slice (0,1].
	g *grid
}

// grid is a Partition's immutable lookup table.
type grid struct {
	// bounds holds the interior boundaries, strictly increasing, inside
	// (0,1). A partition with k slices has k-1 interior boundaries.
	bounds []float64
	// cells is the number of grid cells; r in (0,1] falls in cell
	// int(r*cells), in [0, cells].
	cells float64
	// below[c] counts the boundaries whose cell is < c; the boundaries
	// in cell c are bounds[below[c]:below[c+1]].
	below []int32
}

// cellsPerSlice sizes the grid: with equal-width slices every cell
// holds at most one boundary.
const cellsPerSlice = 4

// fromBounds builds the partition over sorted, validated interior
// boundaries, taking ownership of the slice.
func fromBounds(bounds []float64) Partition {
	if len(bounds) == 0 {
		return Partition{}
	}
	n := cellsPerSlice * (len(bounds) + 1)
	g := &grid{bounds: bounds, cells: float64(n), below: make([]int32, n+2)}
	// A boundary's cell uses the lookup's own arithmetic; since x·cells
	// is monotone in x, every boundary in a lower cell is below any
	// probe in a higher one and vice versa — which keeps lookups exact.
	i := 0
	for c := range g.below {
		for i < len(bounds) && int(bounds[i]*g.cells) < c {
			i++
		}
		g.below[c] = int32(i)
	}
	return Partition{g: g}
}

// index returns the first i with bounds[i] >= r (len(bounds) if none,
// NaN included).
func (g *grid) index(r float64) int {
	if !(r > 0 && r <= 1) {
		if r <= 0 {
			return 0
		}
		return len(g.bounds) // r > 1, +Inf or NaN
	}
	c := int(r * g.cells)
	i, end := int(g.below[c]), int(g.below[c+1])
	for i < end && g.bounds[i] < r {
		i++
	}
	return i
}

// Equal returns a partition of k equally sized slices.
func Equal(k int) (Partition, error) {
	if k < 1 {
		return Partition{}, ErrNoSlices
	}
	bounds := make([]float64, k-1)
	for i := 1; i < k; i++ {
		bounds[i-1] = float64(i) / float64(k)
	}
	return fromBounds(bounds), nil
}

// MustEqual is Equal for static configuration; it panics on error.
func MustEqual(k int) Partition {
	p, err := Equal(k)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPartition builds a partition from interior boundaries. For example
// NewPartition(0.8) defines two slices (0,0.8] and (0.8,1]: the "bottom
// 80%" and the "top 20%". NewPartition() defines the single slice (0,1].
func NewPartition(bounds ...float64) (Partition, error) {
	sorted := make([]float64, len(bounds))
	copy(sorted, bounds)
	sort.Float64s(sorted)
	for i, b := range sorted {
		if b <= 0 || b >= 1 || math.IsNaN(b) {
			return Partition{}, fmt.Errorf("%w: boundary %v out of range", ErrBadBoundary, b)
		}
		if i > 0 && sorted[i-1] >= b {
			return Partition{}, fmt.Errorf("%w: duplicate boundary %v", ErrBadBoundary, b)
		}
	}
	return fromBounds(sorted), nil
}

// bounds returns the interior boundaries (shared, read-only).
func (p Partition) bounds() []float64 {
	if p.g == nil {
		return nil
	}
	return p.g.bounds
}

// Len returns the number of slices.
func (p Partition) Len() int { return len(p.bounds()) + 1 }

// Slice returns the i-th slice (0-based).
func (p Partition) Slice(i int) Slice {
	bounds := p.bounds()
	low, high := 0.0, 1.0
	if i > 0 {
		low = bounds[i-1]
	}
	if i < len(bounds) {
		high = bounds[i]
	}
	return Slice{Low: low, High: high}
}

// Slices returns all slices in order.
func (p Partition) Slices() []Slice {
	out := make([]Slice, p.Len())
	for i := range out {
		out[i] = p.Slice(i)
	}
	return out
}

// Index returns the index of the slice containing normalized rank r.
// Values r ≤ 0 clamp to the first slice and r > 1 to the last, so that
// degenerate estimates (an empty estimator reports 0) still map to a
// slice, as every node must always report some slice. A rank exactly on
// a boundary belongs to the lower slice ((l,u] intervals).
func (p Partition) Index(r float64) int {
	if p.g == nil {
		return 0
	}
	return p.g.index(r)
}

// Of returns the slice containing normalized rank r (clamped like Index).
func (p Partition) Of(r float64) Slice { return p.Slice(p.Index(r)) }

// Boundaries returns the interior boundaries (a copy).
func (p Partition) Boundaries() []float64 {
	out := make([]float64, len(p.bounds()))
	copy(out, p.bounds())
	return out
}

// NearestBoundary returns the interior boundary closest to rank r and the
// distance to it. Ranking nodes use it to bias gossip toward nodes whose
// estimate sits close to a boundary (paper §5.1); Theorem 5.1 expresses
// the required sample count in terms of this distance.
//
// A partition with a single slice has no interior boundary; in that case
// NearestBoundary returns (NaN, +Inf): no node is ever "close to a
// boundary".
func (p Partition) NearestBoundary(r float64) (boundary, dist float64) {
	if p.g == nil {
		return math.NaN(), math.Inf(1)
	}
	bounds := p.g.bounds
	i := p.g.index(r)
	boundary, dist = math.NaN(), math.Inf(1)
	if i < len(bounds) {
		boundary, dist = bounds[i], bounds[i]-r
	}
	if i > 0 && r-bounds[i-1] < dist {
		boundary, dist = bounds[i-1], r-bounds[i-1]
	}
	return boundary, dist
}

// BoundaryDistance returns only the distance component of NearestBoundary.
func (p Partition) BoundaryDistance(r float64) float64 {
	_, d := p.NearestBoundary(r)
	return d
}

// SliceDistance returns the slice disorder contribution of a node whose
// actual slice is index act and whose estimated slice is index est:
// 1/(u−l) · |mid(actual) − mid(estimated)| (paper §4.4). For equal-width
// partitions this equals |act − est|.
func (p Partition) SliceDistance(act, est int) float64 {
	actual := p.Slice(act)
	estimated := p.Slice(est)
	return math.Abs(actual.Mid()-estimated.Mid()) / actual.Width()
}

// Validate checks internal invariants; it is primarily exercised by
// property tests.
func (p Partition) Validate() error {
	bounds := p.bounds()
	for i, b := range bounds {
		if b <= 0 || b >= 1 {
			return fmt.Errorf("%w: %v", ErrBadBoundary, b)
		}
		if i > 0 && bounds[i-1] >= b {
			return fmt.Errorf("%w: %v after %v", ErrBadBoundary, b, bounds[i-1])
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (p Partition) String() string {
	parts := make([]string, p.Len())
	for i := range parts {
		parts[i] = p.Slice(i).String()
	}
	return strings.Join(parts, " ")
}
