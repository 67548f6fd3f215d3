package solver

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ir"
)

// fuzzSpace declares the four fuzzed variables, each 3 or 4 bits wide: a
// plain header field of each width, a masked variable and a synthetic
// (havoc) one, the last two with fuzzed domains.
func fuzzSpace(mask, hhi uint64) (*Space, [4]Var) {
	sp := NewSpace([]ir.Field{{Name: "f", Bits: 3}, {Name: "g", Bits: 4}})
	vars := [4]Var{
		{Pkt: 0, Field: "f"},
		{Pkt: 1, Field: "g"},
		MaskedVar(Var{Pkt: 0, Field: "g"}, mask),
		{Pkt: 0, Field: "__h0_0"},
	}
	sp.SetDomain(vars[2], Interval{0, mask})
	sp.SetDomain(vars[3], Interval{0, hhi})
	return sp, vars
}

// decodeSolverFuzz turns fuzz bytes into the masked variable's mask, the
// synthetic variable's upper bound, and a conjunction of at most eight
// constraints a·x + b·y + k op 0 over the four variables. The shapes cover
// every structured fragment (unary with unit and scaled coefficients,
// binary differences, including two-variable equalities) and the generic
// residue. Missing bytes read as 0.
func decodeSolverFuzz(data []byte) (mask, hhi uint64, cons []fuzzCon) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// Coefficients of x and y, drawn independently.
	as := [...]int64{1, 1, 1, -1, 2, 1, 2, 0}
	bs := [...]int64{0, -1, -1, 0, 0, 1, -1, 0}
	mask = uint64(1 + next()%15) // 1..15: 1–4 bits
	hhi = uint64(7 + next()%9)   // 7..15
	cons = make([]fuzzCon, next()%9)
	for i := range cons {
		fc := fuzzCon{op: ir.CmpOp(next() % 6), x: next() % 4}
		fc.y = (fc.x + 1 + next()%3) % 4
		fc.a, fc.b = as[next()%len(as)], bs[next()%len(bs)]
		fc.k = int64(next()%28) - 8
		cons[i] = fc
	}
	return mask, hhi, cons
}

// fuzzCon is one decoded constraint over variable indices, evaluated by
// enumeration without going through the solver.
type fuzzCon struct {
	op   ir.CmpOp
	x, y int
	a, b int64
	k    int64
}

func (fc fuzzCon) constraint(vars [4]Var) Constraint {
	e := VarExpr(vars[fc.x]).Scale(fc.a).Add(VarExpr(vars[fc.y]).Scale(fc.b)).Add(ConstExpr(fc.k))
	return Constraint{E: e, Op: fc.op}
}

func (fc fuzzCon) holds(val *[4]int64) bool {
	return Constraint{E: ConstExpr(fc.a*val[fc.x] + fc.b*val[fc.y] + fc.k), Op: fc.op}.Holds(nil)
}

// satisfiable enumerates every assignment of the four variables over their
// domains.
func satisfiable(sp *Space, vars [4]Var, cons []fuzzCon) bool {
	var val [4]int64
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(vars) {
			for _, fc := range cons {
				if !fc.holds(&val) {
					return false
				}
			}
			return true
		}
		dom := sp.Domain(vars[i])
		for x := dom.Lo; x <= dom.Hi; x++ {
			val[i] = int64(x)
			if walk(i + 1) {
				return true
			}
		}
		return false
	}
	return walk(0)
}

// sameSystem describes how got differs from want, or returns "" when they
// agree: the same verdict and, for a feasible verdict, the same classes
// (roots, intervals, members, holes), diffs, neqs and generic residue.
func sameSystem(got, want *System) string {
	if got.Feasible != want.Feasible {
		return fmt.Sprintf("Feasible = %v, Build says %v", got.Feasible, want.Feasible)
	}
	if !got.Feasible || reflect.DeepEqual(got, want) {
		return ""
	}
	var b []byte
	b = fmt.Appendf(b, "extended:\n")
	for _, c := range got.Classes {
		b = fmt.Appendf(b, "  %+v\n", *c)
	}
	b = fmt.Appendf(b, "  diffs %v neqs %v generic %v n %d\nbuilt:\n", got.Diffs, got.Neqs, got.Generic, got.n)
	for _, c := range want.Classes {
		b = fmt.Appendf(b, "  %+v\n", *c)
	}
	b = fmt.Appendf(b, "  diffs %v neqs %v generic %v n %d", want.Diffs, want.Neqs, want.Generic, want.n)
	return string(b)
}

// FuzzSolverSound checks the solver against brute-force enumeration over
// four 3–4-bit variables: an infeasible verdict must have no satisfying
// assignment, and every witness Solve returns must satisfy every
// constraint within the variables' domains. It also checks that Extend is
// Build: growing the conjunction one constraint at a time — with a sibling
// extension by the negated next constraint at every step, as a fork makes
// — yields exactly the system one Build does, and leaves every system it
// extended from unchanged.
func FuzzSolverSound(f *testing.F) {
	// Layout: mask byte, synthetic-bound byte, constraint count and, per
	// constraint, op, x, y, a-shape, b-shape and k bytes.
	f.Add([]byte{14, 0, 3, 3, 0, 0, 0, 0, 12, 0, 1, 0, 1, 1, 11, 4, 2, 1, 0, 0, 9})
	f.Add([]byte{6, 3, 5, 5, 0, 0, 0, 0, 14, 0, 2, 0, 0, 0, 8, 2, 0, 1, 1, 1, 7, 1, 3, 0, 2, 2, 8, 3, 1, 2, 0, 0, 10})
	f.Add([]byte{15, 8, 8, 0, 0, 0, 1, 1, 8, 3, 1, 0, 4, 4, 9, 2, 2, 0, 5, 5, 20, 0, 3, 1, 6, 6, 12, 1, 0, 0, 3, 3, 2, 5, 1, 1, 0, 0, 15, 4, 2, 2, 1, 2, 10, 0, 0, 2, 0, 0, 8})
	f.Add([]byte{3, 1, 4, 0, 0, 1, 1, 1, 8, 3, 0, 0, 1, 1, 8, 1, 1, 2, 1, 1, 9, 2, 2, 2, 1, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		mask, hhi, fcs := decodeSolverFuzz(data)
		sp, vars := fuzzSpace(mask, hhi)
		cs := make([]Constraint, len(fcs))
		for i, fc := range fcs {
			cs[i] = fc.constraint(vars)
		}

		sys := Build(cs, sp)
		if !sys.Feasible && satisfiable(sp, vars, fcs) {
			t.Fatalf("Build proved %v infeasible, but enumeration satisfies it", cs)
		}
		if asn, ok := Solve(cs, sp, SolveOptions{Seed: 1}); ok {
			for _, c := range cs {
				if !c.Holds(asn) {
					t.Fatalf("witness %v violates %v", asn, c)
				}
			}
			for v, x := range asn {
				if !sp.Domain(v).Contains(x) {
					t.Fatalf("witness %v puts %v outside its domain", asn, v)
				}
			}
		}

		chain := []*System{Build(nil, sp)}
		for i := range cs {
			prefix := chain[i]
			sibling := append(append([]Constraint(nil), cs[:i]...), cs[i].Negate())
			if diff := sameSystem(prefix.Extend(sibling), Build(sibling, sp)); diff != "" {
				t.Fatalf("extending %v by %v:\n%s", cs[:i], cs[i].Negate(), diff)
			}
			next := prefix.Extend(cs[:i+1])
			if diff := sameSystem(next, Build(cs[:i+1], sp)); diff != "" {
				t.Fatalf("extending %v by %v:\n%s", cs[:i], cs[i], diff)
			}
			chain = append(chain, next)
		}
		for i, s := range chain {
			if diff := sameSystem(s, Build(cs[:i], sp)); diff != "" {
				t.Fatalf("system of %v changed after extension:\n%s", cs[:i], diff)
			}
		}
	})
}
