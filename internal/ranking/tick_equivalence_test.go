package ranking

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

// tickCase is one random tick state, built twice: once for the
// reference TickTargets and once for the fused kernel.
type tickCase struct {
	self    core.ID
	attr    core.Attr
	slices  int
	entries []view.Entry
	// table is the coordinate snapshot; nil runs the view-backed mode.
	table  proto.CoordTable
	window int    // 0 = Counter, else the Window size
	warmup []bool // observations fed to the estimator before the tick
	noScan bool
	noBias bool
}

// tiePool holds coordinates equidistant from the boundaries of the
// 2- and 4-slice partitions, so several neighbors share the minimal
// boundary distance and j1 must be the earliest of them.
var tiePool = []float64{0.125, 0.375, 0.625, 0.875, 0.25, 0.5, 0.75}

func randomTickCase(rng *rand.Rand) tickCase {
	tc := tickCase{
		slices: []int{1, 2, 4, 4, 10}[rng.Intn(5)],
		noScan: rng.Intn(4) == 0,
		noBias: rng.Intn(4) == 0,
	}
	drawR := func() float64 {
		switch k := rng.Intn(20); {
		case k < 8:
			return tiePool[rng.Intn(len(tiePool))]
		case k == 8:
			return []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(6)]
		default:
			return rng.Float64()
		}
	}
	c := rng.Intn(12) // 0 = empty view
	maxID := 2*c + 3
	ids := rng.Perm(maxID)
	tc.self = core.ID(ids[0] + 1)
	tc.attr = core.Attr(rng.Intn(6))
	allPlaceholders := rng.Intn(8) == 0
	for i := 1; i <= c; i++ {
		e := view.Entry{
			ID:   core.ID(ids[i] + 1),
			Age:  uint32(rng.Intn(5)),
			Attr: core.Attr(rng.Intn(6)), // small pool: attribute ties break by ID
			R:    drawR(),
		}
		if allPlaceholders || rng.Intn(5) == 0 {
			e.Age = view.AgeUnknown
		}
		tc.entries = append(tc.entries, e)
	}
	if rng.Intn(2) == 0 {
		// Shorter than the ID range, so some neighbors are out of the
		// table; NaN marks departed IDs.
		tc.table = make(proto.CoordTable, rng.Intn(maxID+2))
		for i := range tc.table {
			if rng.Intn(3) == 0 {
				tc.table[i] = math.NaN()
			} else {
				tc.table[i] = drawR()
			}
		}
	}
	if rng.Intn(2) == 0 {
		tc.window = 1 + rng.Intn(6)
	}
	for i := rng.Intn(10); i > 0; i-- {
		tc.warmup = append(tc.warmup, rng.Intn(2) == 0)
	}
	return tc
}

func (tc tickCase) node(t *testing.T) *Node {
	t.Helper()
	v := view.MustNew(len(tc.entries) + 1)
	for _, e := range tc.entries {
		v.Add(e)
	}
	var est Estimator = NewCounter()
	if tc.window > 0 {
		est = MustNewWindow(tc.window)
	}
	for _, lower := range tc.warmup {
		est.Observe(lower)
	}
	n, err := NewNode(Config{
		ID: tc.self, Attr: tc.attr, Partition: core.MustEqual(tc.slices),
		Estimator: est, View: v,
		DisableViewScan: tc.noScan, DisableBoundaryBias: tc.noBias,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// distanceTie reports whether two or more real neighbors share the
// minimal boundary distance the reference resolves.
func (tc tickCase) distanceTie(n *Node) bool {
	best, count := math.Inf(1), 0
	for _, e := range tc.entries {
		if e.Placeholder() {
			continue
		}
		r := e.R
		if live, ok := tc.table.Coord(e.ID); ok {
			r = live
		}
		switch d := n.part.BoundaryDistance(r); {
		case d < best:
			best, count = d, 1
		case d == best:
			count++
		}
	}
	return count > 1
}

// TestTickTargetsTableMatchesTickTargets pins the fused kernel to the
// StateReader reference over random states — empty views, placeholders
// among real entries, all-placeholder views, distance and attribute
// ties, NaN and out-of-range table IDs, both estimators and both
// ablations: the same targets, stats, estimator state and RNG draws.
// The table mode wraps the table in a reader; the nil-table mode runs
// against proto.ViewBacked, through Tick on odd trials.
func TestTickTargetsTableMatchesTickTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var placeholderOK, allPlaceholder, ties, empty, viewBacked int
	for trial := 0; trial < 4000; trial++ {
		tc := randomTickCase(rng)
		seed := rng.Int63()
		ref, fused := tc.node(t), tc.node(t)
		refRNG, fusedRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))

		var reader proto.StateReader = proto.FuncReader(tc.table.Coord)
		if tc.table == nil {
			reader = proto.ViewBacked(ref.ID(), ref.Estimate, ref.View())
		}
		r1, r2, rok := ref.TickTargets(reader, refRNG, &Scratch{})
		var f1, f2 core.ID
		var fok bool
		if tc.table == nil && trial%2 == 1 {
			envs := fused.Tick(proto.ViewBacked(fused.ID(), fused.Estimate, fused.View()), fusedRNG)
			if fok = len(envs) == 2; fok {
				f1, f2 = envs[0].To, envs[1].To
			}
		} else {
			f1, f2, fok = fused.TickTargetsTable(tc.table, fusedRNG)
		}

		if r1 != f1 || r2 != f2 || rok != fok {
			t.Fatalf("trial %d (%+v): targets (%v,%v,%v), want (%v,%v,%v)", trial, tc, f1, f2, fok, r1, r2, rok)
		}
		if ref.Stats() != fused.Stats() {
			t.Fatalf("trial %d: stats %+v, want %+v", trial, fused.Stats(), ref.Stats())
		}
		if math.Float64bits(ref.Estimate()) != math.Float64bits(fused.Estimate()) || ref.Samples() != fused.Samples() {
			t.Fatalf("trial %d: estimator (%v,%d), want (%v,%d)",
				trial, fused.Estimate(), fused.Samples(), ref.Estimate(), ref.Samples())
		}
		if a, b := refRNG.Int63(), fusedRNG.Int63(); a != b {
			t.Fatalf("trial %d: RNG streams diverge after the tick", trial)
		}

		real := 0
		for _, e := range tc.entries {
			if !e.Placeholder() {
				real++
			}
		}
		switch {
		case len(tc.entries) == 0:
			empty++
		case real == 0:
			allPlaceholder++
		case real < len(tc.entries) && rok:
			placeholderOK++
		}
		if rok && !tc.noBias && tc.distanceTie(ref) {
			ties++
		}
		if tc.table == nil {
			viewBacked++
		}
	}
	t.Logf("coverage: %d placeholder-mixed, %d all-placeholder, %d empty, %d ties, %d view-backed",
		placeholderOK, allPlaceholder, empty, ties, viewBacked)
	// Coverage floor: each branch must be exercised, not merely
	// reachable.
	for _, floor := range []struct {
		name     string
		got, min int
	}{
		{"placeholders among real entries", placeholderOK, 800},
		{"all-placeholder views", allPlaceholder, 150},
		{"empty views", empty, 150},
		{"boundary-distance ties", ties, 500},
		{"view-backed (nil table)", viewBacked, 1500},
	} {
		if floor.got < floor.min {
			t.Errorf("only %d/4000 trials covered %s, want ≥ %d", floor.got, floor.name, floor.min)
		}
	}
}

// TestTickViewBackedOwnerInView covers the guard in Tick: a view that
// holds its owner resolves the owner's ID to the post-scan estimate,
// which only the reference path reproduces.
func TestTickViewBackedOwnerInView(t *testing.T) {
	build := func() *Node {
		n := newTestNode(t, 10, 50, 2, nil)
		n.View().Add(view.Entry{ID: 2, Attr: 10, R: 0.9})
		n.View().Add(view.Entry{ID: 10, Attr: 50, R: 0.1}) // the owner, recorded far from 0.5
		n.View().Add(view.Entry{ID: 3, Attr: 20, R: 0.95})
		return n
	}
	ref, got := build(), build()
	r1, r2, _ := ref.TickTargets(proto.ViewBacked(10, ref.Estimate, ref.View()), rand.New(rand.NewSource(1)), &Scratch{})
	envs := got.Tick(proto.ViewBacked(10, got.Estimate, got.View()), rand.New(rand.NewSource(1)))
	if len(envs) != 2 || envs[0].To != r1 || envs[1].To != r2 {
		t.Fatalf("Tick targets %v, want (%v,%v)", envs, r1, r2)
	}
	if r1 != 10 {
		t.Fatalf("j1 = %v, want the owner 10 (post-scan estimate 2/3 is nearest 0.5)", r1)
	}
}

var sinkID core.ID

// BenchmarkTickTargets times one fused tick over a c=20 view and a
// 100-slice partition, resolving through a table and with nil.
func BenchmarkTickTargets(b *testing.B) {
	const c = 20
	for _, mode := range []string{"table", "nil"} {
		b.Run(mode, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			v := view.MustNew(c)
			table := make(proto.CoordTable, 4*c)
			for i := range table {
				table[i] = rng.Float64()
			}
			for i := 0; i < c; i++ {
				v.Add(view.Entry{ID: core.ID(2 + 3*i), Attr: core.Attr(rng.Float64()), R: rng.Float64()})
			}
			if mode == "nil" {
				table = nil
			}
			n, err := NewNode(Config{
				ID: 1, Attr: 0.5, Partition: core.MustEqual(100), Estimator: NewCounter(), View: v,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkID, _, _ = n.TickTargetsTable(table, rng)
			}
		})
	}
}
