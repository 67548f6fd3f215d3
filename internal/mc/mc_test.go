package mc

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/prob"
	"repro/internal/solver"
	"repro/internal/testutil"
)

func sp() *solver.Space {
	return solver.NewSpace([]ir.Field{
		{Name: "a", Bits: 8}, {Name: "b", Bits: 8}, {Name: "c", Bits: 8},
		{Name: "w", Bits: 16},
	})
}

func v(pkt int, f string) solver.Var { return solver.Var{Pkt: pkt, Field: f} }

func con(op ir.CmpOp, a, b solver.LinExpr) solver.Constraint { return solver.NewCmp(op, a, b) }

func almostEq(a, b, tol float64) bool { return testutil.ApproxEqual(a, b, tol, 0) }

func TestUniformInterval(t *testing.T) {
	c := NewCounter(sp(), nil)
	// a <= 63 over an 8-bit field: 64/256 = 0.25.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.ConstExpr(63)),
	})
	if !almostEq(p.Float(), 0.25, 1e-9) {
		t.Fatalf("P = %v, want 0.25", p.Float())
	}
}

func TestEmptyConjunction(t *testing.T) {
	c := NewCounter(sp(), nil)
	if got := c.ProbOf(nil).Float(); got != 1 {
		t.Fatalf("empty pc should have probability 1, got %v", got)
	}
}

func TestInfeasible(t *testing.T) {
	c := NewCounter(sp(), nil)
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpGt, solver.VarExpr(v(0, "a")), solver.ConstExpr(100)),
		con(ir.CmpLt, solver.VarExpr(v(0, "a")), solver.ConstExpr(50)),
	})
	if !p.IsZero() {
		t.Fatalf("infeasible pc should be zero, got %v", p)
	}
}

func TestConjunctionIndependentFields(t *testing.T) {
	c := NewCounter(sp(), nil)
	// P(a == 5) * P(b <= 127) = (1/256)*(1/2).
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.ConstExpr(5)),
		con(ir.CmpLe, solver.VarExpr(v(0, "b")), solver.ConstExpr(127)),
	})
	want := (1.0 / 256) * 0.5
	if !almostEq(p.Float(), want, 1e-12) {
		t.Fatalf("P = %v, want %v", p.Float(), want)
	}
}

func TestCrossPacketEqualityUniform(t *testing.T) {
	c := NewCounter(sp(), nil)
	// P(p0.a == p1.a) under independence/uniform = 1/256.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.VarExpr(v(1, "a"))),
	})
	if !almostEq(p.Float(), 1.0/256, 1e-12) {
		t.Fatalf("P = %v, want 1/256", p.Float())
	}
	// Three-way equality: 1/256^2.
	p3 := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.VarExpr(v(1, "a"))),
		con(ir.CmpEq, solver.VarExpr(v(1, "a")), solver.VarExpr(v(2, "a"))),
	})
	if !almostEq(p3.Float(), 1.0/(256*256), 1e-14) {
		t.Fatalf("P3 = %v, want 1/65536", p3.Float())
	}
}

func TestCrossPacketEqualityOracle(t *testing.T) {
	// A trace oracle reporting a 1% retransmission (pair-equality) ratio.
	profile := dist.NewProfile().SetPairEq("a", 0.01)
	c := NewCounter(sp(), profile)
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.VarExpr(v(1, "a"))),
	})
	if !almostEq(p.Float(), 0.01, 1e-9) {
		t.Fatalf("P = %v, want 0.01", p.Float())
	}
}

func TestSkewedMarginal(t *testing.T) {
	profile := dist.NewProfile().SetField("a", dist.MustFromPieces([]dist.Piece{
		{Lo: 6, Hi: 6, Mass: 0.9}, {Lo: 17, Hi: 17, Mass: 0.1},
	}))
	c := NewCounter(sp(), profile)
	pTCP := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.ConstExpr(6)),
	})
	if !almostEq(pTCP.Float(), 0.9, 1e-12) {
		t.Fatalf("P(tcp) = %v", pTCP.Float())
	}
	pOther := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.ConstExpr(7)),
	})
	if !pOther.IsZero() {
		t.Fatalf("P(proto 7) should be 0 under the profile, got %v", pOther)
	}
}

func TestDisequality(t *testing.T) {
	c := NewCounter(sp(), nil)
	// P(a != 5) = 255/256.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpNe, solver.VarExpr(v(0, "a")), solver.ConstExpr(5)),
	})
	if !almostEq(p.Float(), 255.0/256, 1e-12) {
		t.Fatalf("P = %v", p.Float())
	}
	// P(a != b) = 1 - 1/256.
	p2 := c.ProbOf([]solver.Constraint{
		con(ir.CmpNe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	})
	if !almostEq(p2.Float(), 255.0/256, 1e-9) {
		t.Fatalf("P(a!=b) = %v", p2.Float())
	}
}

func TestVarVarInequality(t *testing.T) {
	c := NewCounter(sp(), nil)
	// P(a < b) over two uniform 8-bit fields = C(256,2)/256^2.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLt, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	})
	want := (256.0 * 255 / 2) / (256.0 * 256)
	if !almostEq(p.Float(), want, 1e-9) {
		t.Fatalf("P(a<b) = %v, want %v", p.Float(), want)
	}
	// P(a <= b) = (C(256,2)+256)/256^2.
	p2 := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	})
	want2 := (256.0*255/2 + 256) / (256.0 * 256)
	if !almostEq(p2.Float(), want2, 1e-9) {
		t.Fatalf("P(a<=b) = %v, want %v", p2.Float(), want2)
	}
}

func TestBandConstraint(t *testing.T) {
	c := NewCounter(sp(), nil)
	// |a - b| <= 1: 256 + 2*255 pairs.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b")).Add(solver.ConstExpr(1))),
		con(ir.CmpGe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b")).Sub(solver.ConstExpr(1))),
	})
	want := (256.0 + 2*255) / (256.0 * 256)
	if !almostEq(p.Float(), want, 1e-9) {
		t.Fatalf("P(|a-b|<=1) = %v, want %v", p.Float(), want)
	}
}

func TestPairWithNeqCorrection(t *testing.T) {
	c := NewCounter(sp(), nil)
	// a <= b and a != b: (C(256,2)) pairs.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
		con(ir.CmpNe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	})
	want := (256.0 * 255 / 2) / (256.0 * 256)
	if !almostEq(p.Float(), want, 1e-9) {
		t.Fatalf("P = %v, want %v", p.Float(), want)
	}
}

func TestMonteCarloFallback(t *testing.T) {
	c := NewCounter(sp(), nil)
	c.Seed = 7
	// a + b <= 255 is generic: exact answer is (257*256/2)/256^2 ≈ 0.502.
	p := c.ProbOf([]solver.Constraint{
		solver.NewCmp(ir.CmpLe,
			solver.VarExpr(v(0, "a")).Add(solver.VarExpr(v(0, "b"))),
			solver.ConstExpr(255)),
	})
	want := (257.0 * 256 / 2) / (256.0 * 256)
	if !testutil.ApproxEqual(p.Float(), want, 0.02, 0) {
		t.Fatalf("MC estimate %v too far from %v", p.Float(), want)
	}
	if c.Stats().MCFallbacks == 0 {
		t.Fatal("expected an MC fallback")
	}
}

func TestMonteCarloDeterminism(t *testing.T) {
	mk := func() float64 {
		c := NewCounter(sp(), nil)
		c.Seed = 42
		p := c.ProbOf([]solver.Constraint{
			solver.NewCmp(ir.CmpLe,
				solver.VarExpr(v(0, "a")).Add(solver.VarExpr(v(0, "b"))),
				solver.ConstExpr(100)),
		})
		return p.Float()
	}
	if mk() != mk() {
		t.Fatal("MC fallback should be deterministic for a fixed seed")
	}
}

func TestCache(t *testing.T) {
	c := NewCounter(sp(), nil)
	cs := []solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.ConstExpr(10)),
	}
	p1 := c.ProbOf(cs)
	p2 := c.ProbOf(cs)
	if p1.Cmp(p2) != 0 {
		t.Fatal("cached result differs")
	}
	if c.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", c.Stats().CacheHits)
	}
}

func TestCountPairsGeometry(t *testing.T) {
	// Brute-force cross-check on small rectangles.
	brute := func(a0, a1, b0, b1 uint64, dlo, dhi int64) float64 {
		n := 0
		for x := a0; x <= a1; x++ {
			for y := b0; y <= b1; y++ {
				d := int64(x) - int64(y)
				if d >= dlo && d <= dhi {
					n++
				}
			}
		}
		return float64(n)
	}
	cases := []struct {
		a0, a1, b0, b1 uint64
		dlo, dhi       int64
	}{
		{0, 9, 0, 9, -3, 3},
		{0, 9, 5, 14, 0, 0},
		{3, 20, 0, 7, -100, 2},
		{0, 15, 0, 15, 1, 100},
		{0, 5, 10, 12, -2, 2},
		{7, 7, 7, 7, 0, 0},
		{0, 30, 10, 20, -5, -5},
	}
	for _, tc := range cases {
		got := countPairs(tc.a0, tc.a1, tc.b0, tc.b1, tc.dlo, tc.dhi)
		want := brute(tc.a0, tc.a1, tc.b0, tc.b1, tc.dlo, tc.dhi)
		if got != want {
			t.Errorf("countPairs(%v)=%v want %v", tc, got, want)
		}
	}
}

func TestCountPairsRandomized(t *testing.T) {
	brute := func(a0, a1, b0, b1 uint64, dlo, dhi int64) float64 {
		n := 0
		for x := a0; x <= a1; x++ {
			for y := b0; y <= b1; y++ {
				d := int64(x) - int64(y)
				if d >= dlo && d <= dhi {
					n++
				}
			}
		}
		return float64(n)
	}
	seed := int64(12345)
	rnd := func() uint64 { seed = seed*6364136223846793005 + 1442695040888963407; return uint64(seed>>33) % 40 }
	for i := 0; i < 500; i++ {
		a0 := rnd()
		a1 := a0 + rnd()
		b0 := rnd()
		b1 := b0 + rnd()
		dlo := int64(rnd()) - 20
		dhi := dlo + int64(rnd())
		got := countPairs(a0, a1, b0, b1, dlo, dhi)
		want := brute(a0, a1, b0, b1, dlo, dhi)
		if got != want {
			t.Fatalf("case %d: countPairs(%d,%d,%d,%d,%d,%d)=%v want %v", i, a0, a1, b0, b1, dlo, dhi, got, want)
		}
	}
}

func TestCountPairsDoesNotAllocate(t *testing.T) {
	// countPairs runs once per segment pair of every two-class component.
	allocs := testing.AllocsPerRun(100, func() {
		countPairs(3, 20, 0, 7, -100, 2)
	})
	if allocs != 0 {
		t.Fatalf("countPairs allocates %v times per call", allocs)
	}
}

func TestHolePunching(t *testing.T) {
	segs := []wseg{{lo: 0, hi: 9, dens: 0.1}}
	out := punchHoles(segs, []uint64{3, 7})
	total := 0.0
	for _, s := range out {
		total += s.dens * (float64(s.hi-s.lo) + 1)
	}
	if !almostEq(total, 0.8, 1e-12) {
		t.Fatalf("after punching two holes mass = %v, want 0.8", total)
	}
}

func TestForceMCAgreesWithExact(t *testing.T) {
	cs := []solver.Constraint{
		con(ir.CmpLt, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	}
	exact := NewCounter(sp(), nil)
	pe := exact.ProbOf(cs).Float()
	mcc := NewCounter(sp(), nil)
	mcc.ForceMC = true
	mcc.Seed = 3
	pm := mcc.ProbOf(cs).Float()
	if !testutil.ApproxEqual(pe, pm, 0.02, 0) {
		t.Fatalf("exact %v vs MC %v diverge", pe, pm)
	}
}

func TestMaskedDistExact(t *testing.T) {
	// Skewed tcp_flags: 60% pure SYN (0x02), 40% pure ACK (0x10).
	profile := dist.NewProfile().SetField("tcp_flags", dist.MustFromPieces([]dist.Piece{
		{Lo: 0x02, Hi: 0x02, Mass: 0.6}, {Lo: 0x10, Hi: 0x10, Mass: 0.4},
	}))
	c := NewCounter(solver.NewSpace([]ir.Field{{Name: "tcp_flags", Bits: 8}}), profile)
	// P((flags & 0x02) == 0x02) must be exactly the SYN share.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "tcp_flags&2")), solver.ConstExpr(2)),
	})
	if !almostEq(p.Float(), 0.6, 1e-9) {
		t.Fatalf("P(masked SYN) = %v, want 0.6", p.Float())
	}
}

func TestMaskedDistUniformBase(t *testing.T) {
	c := NewCounter(solver.NewSpace([]ir.Field{{Name: "tcp_flags", Bits: 8}}), nil)
	// Uniform 8-bit flags: each bit set with probability 1/2.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "tcp_flags&18")), solver.ConstExpr(18)),
	})
	if !almostEq(p.Float(), 0.25, 1e-9) {
		t.Fatalf("P(two masked bits) = %v, want 0.25", p.Float())
	}
}

func TestMaskedDistWideBaseSubmasks(t *testing.T) {
	// 32-bit base falls back to the submask-uniform model.
	c := NewCounter(solver.NewSpace([]ir.Field{{Name: "dst_ip", Bits: 32}}), nil)
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "dst_ip&3")), solver.ConstExpr(0)),
	})
	if !almostEq(p.Float(), 0.25, 1e-9) {
		t.Fatalf("P(two wide bits clear) = %v, want 0.25", p.Float())
	}
}

func TestMonteCarloEstimatePinned(t *testing.T) {
	// The seed-7 estimate of a + b <= 255 is 10 011 hits out of mcSamples
	// on a base of mass 1. Pinning it bit for bit guards the generic
	// Monte-Carlo path against any change in sampling order or RNG use.
	c := NewCounter(sp(), nil)
	c.Seed = 7
	p := c.ProbOf([]solver.Constraint{
		solver.NewCmp(ir.CmpLe,
			solver.VarExpr(v(0, "a")).Add(solver.VarExpr(v(0, "b"))),
			solver.ConstExpr(255)),
	})
	if want := prob.FromFloat(10011.0 / mcSamples); p.Cmp(want) != 0 || p.Log10() != want.Log10() {
		t.Fatalf("MC estimate log10 %v, want %v", p.Log10(), want.Log10())
	}
}

// neq builds the disequality x != y + k.
func neq(x, y solver.Var, k int64) solver.Constraint {
	return con(ir.CmpNe, solver.VarExpr(x), solver.VarExpr(y).Add(solver.ConstExpr(k)))
}

// wantExactNeq asserts that every component of the query was counted
// without Monte-Carlo and that exactly one went through inclusion–exclusion.
func wantExactNeq(t *testing.T, c *Counter) {
	t.Helper()
	if s := c.Stats(); s.MCFallbacks != 0 || s.ExactNeqs != 1 {
		t.Fatalf("stats %+v: want one exact disequality component and no MC fallback", s)
	}
}

func TestRareBlockNeqChainExact(t *testing.T) {
	// P(0) = 1 − 1e-6, P(1) = 1e-6: a != b, b != c holds only on 1,0,1 and
	// 0,1,0. Monte-Carlo at 20 000 samples almost surely sees neither and
	// used to report exactly 0.
	const rare = 1e-6
	skew := dist.MustFromPieces([]dist.Piece{{Lo: 0, Hi: 0, Mass: 1 - rare}, {Lo: 1, Hi: 1, Mass: rare}})
	profile := dist.NewProfile().SetField("a", skew).SetField("b", skew).SetField("c", skew)
	c := NewCounter(sp(), profile)
	p := c.ProbOf([]solver.Constraint{
		neq(v(0, "a"), v(0, "b"), 0),
		neq(v(0, "b"), v(0, "c"), 0),
	})
	want := rare*(1-rare)*(1-rare) + (1-rare)*rare*rare
	if p.IsZero() || !testutil.ApproxEqual(p.Float(), want, 0, 1e-9) {
		t.Fatalf("P = %v, want %v", p.Float(), want)
	}
	wantExactNeq(t, c)
}

func TestUniformNeqTriangle(t *testing.T) {
	c := NewCounter(sp(), nil)
	p := c.ProbOf([]solver.Constraint{
		neq(v(0, "a"), v(0, "b"), 0),
		neq(v(0, "b"), v(0, "c"), 0),
		neq(v(0, "a"), v(0, "c"), 0),
	})
	want := 256.0 * 255 * 254 / (256 * 256 * 256)
	if !testutil.ApproxEqual(p.Float(), want, 0, 1e-12) {
		t.Fatalf("P = %v, want %v", p.Float(), want)
	}
	wantExactNeq(t, c)
}

func TestOffsetNeqsWithHoles(t *testing.T) {
	// a != b + 3, b != c + 1, a != c, with holes a != 7 and c != 0, all
	// on [0,15] of uniform 8-bit fields. Brute force over 16^3 values.
	lim := solver.ConstExpr(15)
	c := NewCounter(sp(), nil)
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), lim),
		con(ir.CmpLe, solver.VarExpr(v(0, "b")), lim),
		con(ir.CmpLe, solver.VarExpr(v(0, "c")), lim),
		neq(v(0, "a"), v(0, "b"), 3),
		neq(v(0, "b"), v(0, "c"), 1),
		neq(v(0, "a"), v(0, "c"), 0),
		con(ir.CmpNe, solver.VarExpr(v(0, "a")), solver.ConstExpr(7)),
		con(ir.CmpNe, solver.VarExpr(v(0, "c")), solver.ConstExpr(0)),
	})
	n := 0
	for a := 0; a <= 15; a++ {
		for b := 0; b <= 15; b++ {
			for cc := 0; cc <= 15; cc++ {
				if a != b+3 && b != cc+1 && a != cc && a != 7 && cc != 0 {
					n++
				}
			}
		}
	}
	want := float64(n) / (256 * 256 * 256)
	if !testutil.ApproxEqual(p.Float(), want, 0, 1e-12) {
		t.Fatalf("P = %v, want %v (%d assignments)", p.Float(), want, n)
	}
	wantExactNeq(t, c)
}

func TestSixRootNeqTree(t *testing.T) {
	// Any tree of disequalities over q uniform values has q·(q−1)^(n−1)
	// satisfying assignments, whatever its shape.
	x := func(pkt int) solver.Var { return v(pkt, "a") }
	c := NewCounter(sp(), nil)
	p := c.ProbOf([]solver.Constraint{
		neq(x(0), x(1), 0),
		neq(x(0), x(2), 0),
		neq(x(1), x(3), 0),
		neq(x(1), x(4), 0),
		neq(x(2), x(5), 0),
	})
	want := 255.0 * 255 * 255 * 255 * 255 / (256 * 256 * 256 * 256 * 256)
	if !testutil.ApproxEqual(p.Float(), want, 0, 1e-12) {
		t.Fatalf("P = %v, want %v", p.Float(), want)
	}
	wantExactNeq(t, c)
}

func TestNeqEdgeLimitFallsBackToMC(t *testing.T) {
	// a - b avoids 0..maxNeqEdges (one edge past the limit) and b != c:
	// inclusion–exclusion would need 2^12 terms, so Monte-Carlo counts it.
	var cs []solver.Constraint
	for k := int64(0); k <= maxNeqEdges; k++ {
		cs = append(cs, neq(v(0, "a"), v(0, "b"), k))
	}
	cs = append(cs, neq(v(0, "b"), v(0, "c"), 0))
	c := NewCounter(sp(), nil)
	c.Seed = 1
	p := c.ProbOf(cs)
	if s := c.Stats(); s.MCFallbacks != 1 || s.ExactNeqs != 0 {
		t.Fatalf("stats %+v: want one MC fallback", s)
	}
	in := 0.0 // pairs with a − b in 0..maxNeqEdges
	for k := 0; k <= maxNeqEdges; k++ {
		in += float64(256 - k)
	}
	want := (1 - in/(256*256)) * 255 / 256
	if sigma := math.Sqrt(want * (1 - want) / mcSamples); math.Abs(p.Float()-want) > 5*sigma {
		t.Fatalf("MC estimate %v, want %v ± %v", p.Float(), want, 5*sigma)
	}
}

func TestOffsetClassKeepsClippedDensity(t *testing.T) {
	// a == w + 2 over 8- and 16-bit uniform fields: 254 of w's values
	// leave a in range. In root coordinates one member's piece is clipped
	// by the offset; it must keep its per-value density of 1/256.
	c := NewCounter(sp(), nil)
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "w")).Add(solver.ConstExpr(2))),
	})
	want := 254.0 / (256 * 65536)
	if !testutil.ApproxEqual(p.Float(), want, 0, 1e-12) {
		t.Fatalf("P = %v, want %v", p.Float(), want)
	}
}
