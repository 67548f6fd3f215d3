package mc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// fuzzBits are the widths of the four fuzzed fields: a full enumeration of
// all four is 2^18 assignments.
var fuzzBits = [4]int{3, 4, 5, 6}

// fuzzCon is one decoded constraint over variable indices, kept alongside
// its solver form so enumeration never goes through the solver.
type fuzzCon struct {
	kind byte // 0 x<=k, 1 x>=k, 2 x==y+k, 3 x!=k, 4 x!=y+k, 5 x-y<=k
	x, y int
	k    int64
}

func (fc fuzzCon) binary() bool { return fc.kind == 2 || fc.kind == 4 || fc.kind == 5 }

func (fc fuzzCon) holds(val *[4]int64) bool {
	x, y := val[fc.x], val[fc.y]
	switch fc.kind {
	case 0:
		return x <= fc.k
	case 1:
		return x >= fc.k
	case 2:
		return x == y+fc.k
	case 3:
		return x != fc.k
	case 4:
		return x != y+fc.k
	default:
		return x-y <= fc.k
	}
}

func (fc fuzzCon) constraint() solver.Constraint {
	x := solver.VarExpr(fuzzVar(fc.x))
	y := solver.VarExpr(fuzzVar(fc.y))
	k := solver.ConstExpr(fc.k)
	switch fc.kind {
	case 0:
		return solver.NewCmp(ir.CmpLe, x, k)
	case 1:
		return solver.NewCmp(ir.CmpGe, x, k)
	case 2:
		return solver.NewCmp(ir.CmpEq, x, y.Add(k))
	case 3:
		return solver.NewCmp(ir.CmpNe, x, k)
	case 4:
		return solver.NewCmp(ir.CmpNe, x, y.Add(k))
	default:
		return solver.NewCmp(ir.CmpLe, x.Sub(y), k)
	}
}

func fuzzVar(i int) solver.Var { return solver.Var{Field: fmt.Sprintf("f%d", i)} }

// decodeFuzz turns fuzz bytes into skewed marginals for the four fields and
// a conjunction of at most eight constraints. Missing bytes read as 0.
func decodeFuzz(data []byte) ([4]dist.Dist, []fuzzCon) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var margs [4]dist.Dist
	for i, bits := range fuzzBits {
		size := 1 << bits
		np := 1 + next()%8
		pieces := make([]dist.Piece, np)
		for j := range pieces {
			// Masses 0..16 on contiguous chunks: zero-mass gaps and
			// densities skewed by up to 16 × chunk width.
			pieces[j] = dist.Piece{Lo: uint64(j * size / np), Hi: uint64((j+1)*size/np - 1), Mass: float64(next() % 17)}
		}
		d, err := dist.FromPieces(pieces)
		if err != nil { // every chunk drew mass 0
			d = dist.Uniform(bits)
		}
		margs[i] = d
	}
	cons := make([]fuzzCon, next()%9)
	for i := range cons {
		fc := fuzzCon{kind: byte(next() % 6), x: next() % 4}
		fc.y = (fc.x + 1 + next()%3) % 4
		if fc.binary() {
			fc.k = int64(next()%9) - 4
		} else {
			fc.k = int64(next()%72) - 4 // reaches past every domain
		}
		cons[i] = fc
	}
	return margs, cons
}

// enumerate sums the weight of every assignment of the variables in vars
// that satisfies cons, by brute force over their domains.
func enumerate(margs [4]dist.Dist, vars []int, cons []fuzzCon) float64 {
	var val [4]int64
	var walk func(i int, w float64) float64
	walk = func(i int, w float64) float64 {
		if i == len(vars) {
			for _, fc := range cons {
				if !fc.holds(&val) {
					return 0
				}
			}
			return w
		}
		sum := 0.0
		vi := vars[i]
		for x := 0; x < 1<<fuzzBits[vi]; x++ {
			p := margs[vi].P(uint64(x))
			if p == 0 {
				continue
			}
			val[vi] = int64(x)
			sum += walk(i+1, w*p)
		}
		return sum
	}
	return walk(0, 1)
}

// FuzzCounterMatchesEnumeration checks the model counter component by
// component against brute-force enumeration on 3–6-bit fields with skewed
// marginals. Components counted exactly must agree to 1e-9 relative and
// must never read 0 when enumeration finds them feasible; components that
// still reach Monte-Carlo must lie within five binomial standard deviations
// of the truth at mcSamples.
func FuzzCounterMatchesEnumeration(f *testing.F) {
	// Layout: per field, a piece count byte and one mass byte per piece;
	// then a constraint count and, per constraint, kind, x, y and k bytes.
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 3, 4, 0, 0, 4, 4, 1, 0, 4, 4, 0, 1, 4})
	f.Add([]byte{1, 16, 1, 1, 16, 1, 1, 16, 1, 0, 1, 2, 4, 0, 0, 4, 4, 1, 0, 4})
	f.Add([]byte{3, 9, 1, 16, 2, 7, 5, 0, 3, 3, 12, 8, 0, 2, 1, 1, 5, 4, 0, 0, 7, 4, 1, 0, 3, 4, 2, 0, 4, 3, 0, 0, 11, 3, 2, 0, 40})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 4, 2, 0, 0, 6, 4, 1, 0, 4, 5, 2, 0, 5, 4, 0, 1, 4})
	f.Add([]byte{2, 5, 0, 11, 1, 3, 2, 9, 0, 1, 7, 0, 1, 5, 5, 0, 0, 2, 5, 1, 0, 3, 4, 1, 0, 4, 4, 2, 0, 1, 0, 0, 0, 20})
	f.Add([]byte{7, 16, 1, 1, 1, 1, 1, 1, 1, 7, 16, 1, 1, 1, 1, 1, 1, 1, 7, 16, 1, 1, 1, 1, 1, 1, 1, 0, 1, 2, 4, 0, 0, 4, 4, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		margs, cons := decodeFuzz(data)
		space := solver.NewSpace([]ir.Field{
			{Name: "f0", Bits: fuzzBits[0]}, {Name: "f1", Bits: fuzzBits[1]},
			{Name: "f2", Bits: fuzzBits[2]}, {Name: "f3", Bits: fuzzBits[3]},
		})
		profile := dist.NewProfile()
		for i, d := range margs {
			profile.SetField(fuzzVar(i).Field, d)
		}
		cs := make([]solver.Constraint, len(cons))
		for i, fc := range cons {
			cs[i] = fc.constraint()
		}

		// Group the mentioned variables into components with a union-find
		// of their own, independent of the solver's.
		parent := [4]int{0, 1, 2, 3}
		find := func(i int) int {
			for parent[i] != i {
				i = parent[i]
			}
			return i
		}
		var mentioned [4]bool
		for _, fc := range cons {
			mentioned[fc.x] = true
			if fc.binary() {
				mentioned[fc.y] = true
				parent[find(fc.x)] = find(fc.y)
			}
		}
		truth := map[int]float64{} // component root -> probability
		for r := 0; r < 4; r++ {
			if !mentioned[r] || find(r) != r {
				continue
			}
			var vars []int
			for i := 0; i < 4; i++ {
				if mentioned[i] && find(i) == r {
					vars = append(vars, i)
				}
			}
			var own []fuzzCon
			for _, fc := range cons {
				if find(fc.x) == r {
					own = append(own, fc)
				}
			}
			truth[r] = enumerate(margs, vars, own)
		}

		sys := solver.Build(cs, space)
		if !sys.Feasible {
			all := 1.0
			for _, p := range truth {
				all *= p
			}
			if all > 0 {
				t.Fatalf("Build proved infeasible, but enumeration gives probability %v", all)
			}
			return
		}
		c := NewCounter(space, profile)
		c.Seed = 1
		seen := map[int]bool{}
		for _, comp := range components(sys) {
			r := -1
			for _, cl := range comp.classes {
				for _, m := range cl.Members {
					i := int(m.Var.Field[1] - '0') // "f0".."f3"
					if r >= 0 && find(i) != r {
						t.Fatalf("solver component of %v spans two enumeration components", cl.Root)
					}
					r = find(i)
				}
			}
			if seen[r] {
				t.Fatalf("enumeration component of f%d split by the solver", r)
			}
			seen[r] = true
			want := truth[r]

			before := c.Stats().MCFallbacks
			got := c.componentProb(comp).Float()
			if c.Stats().MCFallbacks == before {
				if !testutil.ApproxEqual(got, want, 1e-15, 1e-9) {
					t.Fatalf("exact count of %+v: got %v, enumeration %v", comp, got, want)
				}
				if want > 0 && got == 0 {
					t.Fatalf("exact count of feasible %+v read 0 (enumeration %v)", comp, want)
				}
				continue
			}
			// Monte-Carlo: hits/mcSamples estimates want/base, where base
			// is the product of the class masses it samples from.
			base := 1.0
			for _, cl := range comp.classes {
				base *= segMass(punchHoles(c.classSegments(cl), cl.Holes))
			}
			// The rate is kept a sample away from 0 and 1 so that a
			// certain or impossible hit still leaves one count of slack.
			rate := math.Min(math.Max(want/base, 1.0/mcSamples), 1-1.0/mcSamples)
			sigma := base * math.Sqrt(rate*(1-rate)/mcSamples)
			if math.Abs(got-want) > 5*sigma+1e-12 {
				t.Fatalf("MC estimate of %+v: got %v, enumeration %v, 5σ = %v", comp, got, want, 5*sigma)
			}
		}
		if len(seen) != len(truth) {
			t.Fatalf("solver has %d components, enumeration %d", len(seen), len(truth))
		}
	})
}
