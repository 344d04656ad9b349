package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// searchIndex is the reference lookup the grid must reproduce: a binary
// search for the first i with bounds[i] >= r, with sort.SearchFloat64s's
// predicate, so a NaN rank resolves to len(bounds).
func searchIndex(bounds []float64, r float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !(bounds[mid] >= r) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchNearest is the reference NearestBoundary over searchIndex.
func searchNearest(bounds []float64, r float64) (boundary, dist float64) {
	if len(bounds) == 0 {
		return math.NaN(), math.Inf(1)
	}
	i := searchIndex(bounds, r)
	boundary, dist = math.NaN(), math.Inf(1)
	if i < len(bounds) {
		boundary, dist = bounds[i], bounds[i]-r
	}
	if i > 0 && r-bounds[i-1] < dist {
		boundary, dist = bounds[i-1], r-bounds[i-1]
	}
	return boundary, dist
}

// lookupProbes returns the edge probes for a partition: every boundary,
// its neighbouring floats on both sides, every grid cell edge and its
// neighbours, the domain ends, out-of-domain values and NaN.
func lookupProbes(p Partition, rng *rand.Rand) []float64 {
	probes := []float64{
		0, math.Copysign(0, -1), 1, math.SmallestNonzeroFloat64,
		math.Nextafter(0, 1), math.Nextafter(1, 0), math.Nextafter(1, 2),
		-math.SmallestNonzeroFloat64, -0.5, -1, -math.MaxFloat64,
		1.5, 2, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	near := func(x float64) {
		probes = append(probes, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	for _, b := range p.Boundaries() {
		near(b)
	}
	if p.g != nil {
		for c := 0; c <= int(p.g.cells); c++ {
			near(float64(c) / p.g.cells)
		}
	}
	for i := 0; i < 2000; i++ {
		probes = append(probes, rng.Float64())
	}
	return probes
}

// TestPartitionLookupMatchesSearch pins the grid lookup's exactness
// contract: Index, NearestBoundary and BoundaryDistance agree bit for
// bit with the binary-search reference on every probe.
func TestPartitionLookupMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := map[string]Partition{"zero": {}}
	for _, k := range []int{1, 2, 3, 10, 100, 1000} {
		parts[fmt.Sprintf("equal-%d", k)] = MustEqual(k)
	}
	for _, k := range []int{2, 5, 17, 64, 300} {
		for trial := 0; trial < 4; trial++ {
			bounds := make([]float64, k-1)
			for i := range bounds {
				bounds[i] = rng.Float64()
			}
			p, err := NewPartition(bounds...)
			if err != nil {
				continue // a zero or duplicate draw
			}
			parts[fmt.Sprintf("random-%d-%d", k, trial)] = p
		}
	}
	// 40 boundaries packed into one grid cell (164 cells of width
	// ~0.0061): every probe around them takes the in-cell step.
	clustered := make([]float64, 40)
	for i := range clustered {
		clustered[i] = 0.5 + 1e-4*float64(i+1)
	}
	cp, err := NewPartition(clustered...)
	if err != nil {
		t.Fatal(err)
	}
	if first, last := int(clustered[0]*cp.g.cells), int(clustered[39]*cp.g.cells); first != last {
		t.Fatalf("clustered boundaries span cells %d..%d, want one cell", first, last)
	}
	parts["clustered"] = cp

	for name, p := range parts {
		bounds := p.Boundaries()
		for _, r := range lookupProbes(p, rng) {
			if got, want := p.Index(r), searchIndex(bounds, r); got != want {
				t.Fatalf("%s: Index(%v) = %d, want %d", name, r, got, want)
			}
			gb, gd := p.NearestBoundary(r)
			wb, wd := searchNearest(bounds, r)
			if math.Float64bits(gb) != math.Float64bits(wb) || math.Float64bits(gd) != math.Float64bits(wd) {
				t.Fatalf("%s: NearestBoundary(%v) = (%v,%v), want (%v,%v)", name, r, gb, gd, wb, wd)
			}
			if got := p.BoundaryDistance(r); math.Float64bits(got) != math.Float64bits(wd) {
				t.Fatalf("%s: BoundaryDistance(%v) = %v, want %v", name, r, got, wd)
			}
		}
	}
}

func TestZeroPartitionIsSingleSlice(t *testing.T) {
	var p Partition
	if p.Len() != 1 || p.Index(0.5) != 0 || len(p.Boundaries()) != 0 {
		t.Errorf("zero Partition: Len %d, Index(0.5) %d, %d boundaries; want 1, 0, 0",
			p.Len(), p.Index(0.5), len(p.Boundaries()))
	}
	if b, d := p.NearestBoundary(0.5); !math.IsNaN(b) || !math.IsInf(d, 1) {
		t.Errorf("zero Partition NearestBoundary = (%v,%v), want (NaN,+Inf)", b, d)
	}
	if s := p.Slice(0); s.Low != 0 || s.High != 1 {
		t.Errorf("zero Partition Slice(0) = %v, want (0,1]", s)
	}
}

var (
	sinkInt   int
	sinkFloat float64
)

func benchProbes() []float64 {
	rng := rand.New(rand.NewSource(1))
	rs := make([]float64, 4096)
	for i := range rs {
		rs[i] = rng.Float64()
	}
	return rs
}

func BenchmarkPartitionNearestBoundary(b *testing.B) {
	rs := benchProbes()
	for _, k := range []int{2, 10, 100, 1000} {
		p := MustEqual(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, d := p.NearestBoundary(rs[i&(len(rs)-1)])
				sinkFloat += d
			}
		})
	}
}

func BenchmarkPartitionIndex(b *testing.B) {
	rs := benchProbes()
	for _, k := range []int{2, 10, 100, 1000} {
		p := MustEqual(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt += p.Index(rs[i&(len(rs)-1)])
			}
		})
	}
}
