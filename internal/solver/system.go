package solver

import (
	"math"
	"slices"
	"sort"

	"repro/internal/ir"
)

// Member records that a variable equals its equivalence-class root plus a
// constant offset: val(Var) = val(root) + Off.
type Member struct {
	Var Var
	Off int64
}

// Diff is a difference constraint over class roots: val(A) - val(B) <= C.
type Diff struct {
	A, B Var
	C    int64
}

// Neq is a disequality over class roots: val(A) != val(B) + C.
type Neq struct {
	A, B Var
	C    int64
}

// Class is one equality class of a System: every member equals the root
// plus its offset, and the root ranges over Iv minus Holes.
type Class struct {
	Root Var
	// Iv is the propagated interval of the root.
	Iv Interval
	// Members lists the class's variables in Var order, the root among
	// them with offset 0.
	Members []Member
	// Holes are the excluded root values (unary disequalities), ascending.
	Holes []uint64

	// owner is the system that allocated the class and may still write
	// it. It is nil once that system is finished: from then on the class
	// is read-only and shared by every system extended from it.
	owner *System
}

// System is the normal form of a conjunction of constraints: one Class per
// equality class, difference constraints and disequalities between class
// roots, and a residue of generic constraints that did not fit the
// structured fragment. It is consumed both by the concrete solver (Solve)
// and by the model counter.
//
// A System is immutable once Build or Extend returns it, so an extension
// shares everything its new constraints leave alone: classes are copied on
// write, and Diffs, Neqs and Generic are kept at full capacity so that an
// append always copies.
type System struct {
	Space *Space

	// Classes lists the equality classes in root order.
	Classes []*Class

	Diffs   []Diff
	Neqs    []Neq
	Generic []Constraint

	// Feasible is false when propagation proved the system unsatisfiable.
	Feasible bool

	n int // length of the conjunction the system normalizes
}

type unionFind struct {
	parent map[Var]Var
	off    map[Var]int64 // val(v) = val(parent[v]) + off[v]
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[Var]Var{}, off: map[Var]int64{}}
}

// find returns the root of v and the offset such that val(v) = val(root)+off.
func (u *unionFind) find(v Var) (Var, int64) {
	p, ok := u.parent[v]
	if !ok {
		u.parent[v] = v
		u.off[v] = 0
		return v, 0
	}
	if p == v {
		return v, 0
	}
	root, poff := u.find(p)
	u.parent[v] = root
	u.off[v] += poff
	return root, u.off[v]
}

// union merges so that val(a) = val(b) + k. Returns false on contradiction.
func (u *unionFind) union(a, b Var, k int64) bool {
	ra, oa := u.find(a) // val(a) = val(ra) + oa
	rb, ob := u.find(b) // val(b) = val(rb) + ob
	if ra == rb {
		// val(ra)+oa = val(ra)+ob+k  =>  oa == ob+k
		return oa == ob+k
	}
	// Attach ra under rb: val(ra) = val(a) - oa = val(b)+k-oa = val(rb)+ob+k-oa.
	u.parent[ra] = rb
	u.off[ra] = ob + k - oa
	return true
}

// classify splits a linear expression into the structured fragments.
type kind int

const (
	kConst  kind = iota
	kUnary       // c*x + k  (|c| may be > 1)
	kBinary      // x - y + k (unit coefficients of opposite sign)
	kGeneric
)

func classify(e LinExpr) kind {
	switch len(e.Terms) {
	case 0:
		return kConst
	case 1:
		return kUnary
	case 2:
		a, b := e.Terms[0].Coef, e.Terms[1].Coef
		if (a == 1 && b == -1) || (a == -1 && b == 1) {
			return kBinary
		}
	}
	return kGeneric
}

// Build normalizes a conjunction of constraints over the given space.
// The returned system has Feasible == false when propagation found a
// contradiction; it is conservative in the other direction (Feasible true
// does not guarantee satisfiability when disequalities or generic residue
// are present — use Solve for a definitive witness).
func Build(cs []Constraint, space *Space) *System {
	metrics.builds.Add(1)
	s := &System{Space: space, Feasible: true}
	s.mergeClasses(cs)
	for _, c := range cs {
		if !merges(c) {
			s.add(c)
		}
	}
	s.finish(len(cs))
	return s
}

// Extend returns the system of cs, where s is the system of a prefix of cs
// (the conjunction s was built or extended from). Only the constraints past
// that prefix are normalized; s is left unchanged and shares every class
// they do not touch. An infeasible s stays infeasible and is returned as is.
//
// An equality between two variables may merge classes, and a merge picks
// the root in union order, which the model counter's product order follows.
// An extension with such a constraint is therefore built from scratch, so
// that Extend always returns exactly what Build(cs) would.
func (s *System) Extend(cs []Constraint) *System {
	add := cs[s.n:]
	if len(add) == 0 || !s.Feasible {
		return s
	}
	for _, c := range add {
		if merges(c) {
			return Build(cs, s.Space)
		}
	}
	t := &System{Space: s.Space, Classes: slices.Clone(s.Classes),
		Diffs: s.Diffs, Neqs: s.Neqs, Generic: s.Generic, Feasible: true}
	for _, c := range add {
		t.add(c)
	}
	t.finish(len(cs))
	return t
}

// merges reports whether c equates two unit-coefficient variables: such
// equalities define the classes.
func merges(c Constraint) bool { return c.Op == ir.CmpEq && classify(c.E) == kBinary }

// mergeClasses forms the classes defined by the two-variable equalities of
// cs. Each class's root is the one union order picks; its interval starts
// as the intersection of its members' domains, shifted into root space.
func (s *System) mergeClasses(cs []Constraint) {
	var uf *unionFind
	for _, c := range cs {
		if !merges(c) {
			continue
		}
		if uf == nil {
			uf = newUnionFind()
		}
		// x - y + k == 0  =>  val(x) = val(y) - k.
		x, y, k := binaryParts(c.E)
		if !uf.union(x, y, -k) {
			s.Feasible = false
		}
	}
	if uf == nil {
		return
	}
	vars := make([]Var, 0, len(uf.parent))
	for v := range uf.parent {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Less(vars[j]) })
	byRoot := make(map[Var]*Class, len(vars))
	for _, v := range vars {
		r, off := uf.find(v)
		// val(v) = val(r) + off, and val(v) ∈ Domain(v)
		// => val(r) ∈ Domain(v) - off.
		dom := s.Space.Domain(v).Shift(-off)
		c, ok := byRoot[r]
		if !ok {
			c = &Class{Root: r, Iv: dom, owner: s}
			byRoot[r] = c
			s.Classes = append(s.Classes, c)
		} else {
			c.Iv = c.Iv.Intersect(dom)
		}
		c.Members = append(c.Members, Member{Var: v, Off: off})
	}
	sort.Slice(s.Classes, func(i, j int) bool { return s.Classes[i].Root.Less(s.Classes[j].Root) })
}

// add rewrites one constraint that merges no classes onto class roots.
func (s *System) add(c Constraint) {
	switch classify(c.E) {
	case kConst:
		if !c.Holds(nil) {
			s.Feasible = false
		}
	case kUnary:
		s.addUnary(c)
	case kBinary:
		s.addBinary(c)
	default:
		s.Generic = append(s.Generic, s.rewriteOnRoots(c))
	}
}

// finish propagates the system, seals it against writes through shared
// storage, and records the length of the conjunction it normalizes.
func (s *System) finish(n int) {
	s.propagate()
	for _, c := range s.Classes {
		if c.owner == s {
			c.owner = nil
		}
	}
	s.Diffs = slices.Clip(s.Diffs)
	s.Neqs = slices.Clip(s.Neqs)
	s.Generic = slices.Clip(s.Generic)
	s.n = n
}

// find returns the index of v's class and v's offset from the class root.
// A variable the system has not seen becomes a singleton class over its
// domain.
func (s *System) find(v Var) (int, int64) {
	i, ok := s.rootIndex(v)
	if ok {
		return i, 0
	}
	for j, c := range s.Classes {
		for _, m := range c.Members {
			if m.Var == v {
				return j, m.Off
			}
		}
	}
	c := &Class{Root: v, Iv: s.Space.Domain(v), Members: []Member{{Var: v}}, owner: s}
	s.Classes = slices.Insert(s.Classes, i, c)
	return i, 0
}

// rootIndex binary-searches the classes for the one rooted at r; when there
// is none, it returns the index where such a class would go.
func (s *System) rootIndex(r Var) (int, bool) {
	return slices.BinarySearchFunc(s.Classes, r, func(c *Class, r Var) int { return c.Root.compare(r) })
}

// mut returns class i for writing, copying it first when it is shared with
// the system this one was extended from.
func (s *System) mut(i int) *Class {
	c := s.Classes[i]
	if c.owner != s {
		cp := *c
		cp.owner = s
		c = &cp
		s.Classes[i] = c
	}
	return c
}

// narrow intersects class i's interval with iv, writing only on change.
func (s *System) narrow(i int, iv Interval) {
	cur := s.Classes[i].Iv
	if nv := cur.Intersect(iv); nv != cur {
		s.mut(i).Iv = nv
	}
}

func binaryParts(e LinExpr) (x, y Var, k int64) {
	a, b := e.Terms[0], e.Terms[1]
	if a.Coef == 1 {
		return a.Var, b.Var, e.K // x - y + k
	}
	return b.Var, a.Var, e.K // (b is +1)
}

// addUnary handles c*x + k op 0.
func (s *System) addUnary(con Constraint) {
	t := con.E.Terms[0]
	i, off := s.find(t.Var)
	c, k := t.Coef, con.E.K
	// c*(val(r)+off) + k op 0  =>  c*val(r) op -(k + c*off)
	rhs := -(k + c*off)
	op := con.Op
	if c < 0 {
		c = -c
		rhs = -rhs
		op = flipIneq(op)
	}
	// Now: c*val(r) op rhs with c > 0.
	switch op {
	case ir.CmpEq:
		if rhs < 0 || rhs%c != 0 {
			s.Feasible = false
			return
		}
		v := uint64(rhs / c)
		s.narrow(i, Interval{v, v})
	case ir.CmpNe:
		if rhs >= 0 && rhs%c == 0 {
			s.addHole(i, uint64(rhs/c))
		}
	case ir.CmpLe, ir.CmpLt:
		// c*v <= rhs (or < rhs): v <= floor(rhs'/c)
		limit := rhs
		if op == ir.CmpLt {
			limit--
		}
		if limit < 0 {
			s.Feasible = false
			return
		}
		s.narrow(i, Interval{0, uint64(limit / c)}) // floor for non-negative
	case ir.CmpGe, ir.CmpGt:
		limit := rhs
		if op == ir.CmpGt {
			limit++
		}
		if limit <= 0 {
			return // always true for unsigned v
		}
		s.narrow(i, Interval{uint64((limit + c - 1) / c), math.MaxUint64}) // ceil
	}
}

func flipIneq(op ir.CmpOp) ir.CmpOp {
	switch op {
	case ir.CmpLt:
		return ir.CmpGt
	case ir.CmpLe:
		return ir.CmpGe
	case ir.CmpGt:
		return ir.CmpLt
	case ir.CmpGe:
		return ir.CmpLe
	}
	return op // Eq/Ne unchanged
}

// addBinary handles x - y + k op 0 for every operator but CmpEq, which
// merges classes instead.
func (s *System) addBinary(con Constraint) {
	x, y, k := binaryParts(con.E)
	ix, ox := s.find(x)
	rx := s.Classes[ix].Root
	iy, oy := s.find(y) // may insert a class before ix
	ry := s.Classes[iy].Root
	// val(x)-val(y)+k = val(rx)+ox-val(ry)-oy+k op 0
	kk := ox - oy + k
	if rx == ry {
		// constant: kk op 0
		if !(Constraint{E: ConstExpr(kk), Op: con.Op}).Holds(nil) {
			s.Feasible = false
		}
		return
	}
	switch con.Op {
	case ir.CmpNe:
		// val(rx) != val(ry) - kk
		s.Neqs = append(s.Neqs, Neq{A: rx, B: ry, C: -kk})
	case ir.CmpLe:
		s.Diffs = append(s.Diffs, Diff{A: rx, B: ry, C: -kk})
	case ir.CmpLt:
		s.Diffs = append(s.Diffs, Diff{A: rx, B: ry, C: -kk - 1})
	case ir.CmpGe:
		s.Diffs = append(s.Diffs, Diff{A: ry, B: rx, C: kk})
	case ir.CmpGt:
		s.Diffs = append(s.Diffs, Diff{A: ry, B: rx, C: kk - 1})
	}
}

// addHole excludes root value v from class i.
func (s *System) addHole(i int, v uint64) {
	j, found := slices.BinarySearch(s.Classes[i].Holes, v)
	if found {
		return
	}
	c := s.mut(i)
	c.Holes = slices.Insert(slices.Clip(c.Holes), j, v) // never writes a shared array
}

func (s *System) rewriteOnRoots(con Constraint) Constraint {
	out := LinExpr{K: con.E.K}
	for _, t := range con.E.Terms {
		i, off := s.find(t.Var)
		out.Terms = append(out.Terms, Term{Var: s.Classes[i].Root, Coef: t.Coef})
		out.K += t.Coef * off
	}
	return Constraint{E: out.canon(), Op: con.Op}
}

// propagate tightens root intervals through the difference constraints until
// a fixpoint (bounded by the number of constraints to guarantee
// termination on negative cycles, which are reported as infeasible).
//
// The fixpoint is the greatest one below the starting intervals, whatever
// order the constraints arrive in, so propagating an extension from its
// parent's fixpoint reaches the intervals a from-scratch Build reaches.
func (s *System) propagate() {
	if !s.Feasible {
		return
	}
	ends := make([][2]int, len(s.Diffs)) // class indices of each diff's roots
	for k, d := range s.Diffs {
		ends[k][0], _ = s.rootIndex(d.A)
		ends[k][1], _ = s.rootIndex(d.B)
	}
	maxRounds := len(s.Diffs) + len(s.Classes) + 1
	for round := 0; round < maxRounds; round++ {
		changed := false
		for k, d := range s.Diffs {
			ia, ib := ends[k][0], ends[k][1]
			a, b := s.Classes[ia].Iv, s.Classes[ib].Iv
			// val(a) <= val(b) + C  =>  hi(a) <= hi(b)+C, lo(b) >= lo(a)-C.
			// Use signed arithmetic carefully; values fit in int64 for <=2^32 domains,
			// but 64-bit domains could overflow. Saturate.
			hiLimit := satAdd(int64(b.Hi), d.C)
			if hiLimit < 0 {
				s.Feasible = false
				return
			}
			if uint64(hiLimit) < a.Hi {
				a.Hi = uint64(hiLimit)
				s.mut(ia).Iv = a
				changed = true
			}
			loLimit := satAdd(int64(a.Lo), -d.C)
			if loLimit > 0 && uint64(loLimit) > b.Lo {
				b.Lo = uint64(loLimit)
				s.mut(ib).Iv = b
				changed = true
			}
			if a.Empty() || b.Empty() {
				s.Feasible = false
				return
			}
		}
		if !changed {
			break
		}
		if round == maxRounds-1 {
			// Still changing after |V|+|E| rounds: negative cycle.
			s.Feasible = false
			return
		}
	}
	for _, c := range s.Classes {
		if c.Iv.Empty() {
			s.Feasible = false
			return
		}
	}
	// Singleton intervals fully consumed by holes.
	for _, c := range s.Classes {
		if len(c.Holes) == 0 || c.Iv.Size() > float64(len(c.Holes)) {
			continue
		}
		free := c.Iv.Size()
		for _, h := range c.Holes {
			if c.Iv.Contains(h) {
				free--
			}
		}
		if free <= 0 {
			s.Feasible = false
			return
		}
	}
}

func satAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return int64(^uint64(0) >> 1)
	}
	if b < 0 && s > a {
		return -int64(^uint64(0)>>1) - 1
	}
	return s
}
