package mc

import (
	"math/bits"

	"repro/internal/prob"
	"repro/internal/solver"
)

// maxNeqEdges bounds inclusion–exclusion at 2^10 terms. A disequality
// component with more edges falls back to Monte-Carlo.
const maxNeqEdges = 10

// neqProb exactly counts a component whose classes are linked only by
// disequalities, by inclusion–exclusion over the edge set:
//
//	P = Σ_{S ⊆ neqs} (−1)^|S| · P(every equality in S holds).
//
// Each term merges the roots that S makes equal into offset groups; a group
// of roots with offsets off_i has mass Σ_x ∏_i w_i(x + off_i), the
// segment-intersection mass of the members' weight functions. Weights are
// normalized by each class's mass, so the sum is the probability that the
// disequalities hold given every class's interval and holes, and the class
// masses scale it in log space as in monteCarlo.
func (c *Counter) neqProb(comp component) prob.P {
	n := len(comp.classes)
	idx := make(map[solver.Var]int, n)
	segs := make([][]wseg, n)
	base := prob.One()
	for i, cl := range comp.classes {
		idx[cl.Root] = i
		s := punchHoles(c.classSegments(cl), cl.Holes)
		mass := segMass(s)
		if mass <= 0 {
			return prob.Zero()
		}
		norm := make([]wseg, len(s))
		for k, sg := range s {
			norm[k] = wseg{lo: sg.lo, hi: sg.hi, dens: sg.dens / mass}
		}
		segs[i] = norm
		base = base.Mul(prob.FromFloat(mass))
	}

	uf := offsetUF{parent: make([]int, n), off: make([]int64, n)}
	var scratch [2][]wseg // ping-pong buffers for group products
	total := 0.0
	for subset := 0; subset < 1<<len(comp.neqs); subset++ {
		uf.reset()
		consistent := true
		for e, ne := range comp.neqs {
			if subset>>e&1 == 1 && !uf.union(idx[ne.A], idx[ne.B], ne.C) {
				consistent = false
				break
			}
		}
		if !consistent {
			continue // the equalities contradict each other: the term is 0
		}
		term := 1.0
		for rep := 0; rep < n && term != 0; rep++ {
			if uf.parent[rep] != rep {
				continue
			}
			// The group's weight in rep coordinates: member j takes
			// the value x + off_j when rep takes x. A singleton group's
			// normalized mass is 1, so it leaves the term alone.
			cur, size := segs[rep], 1
			for j := 0; j < n; j++ {
				if j == rep {
					continue
				}
				if r, off := uf.find(j); r == rep {
					k := size % 2
					scratch[k] = intersectShifted(scratch[k][:0], cur, segs[j], off)
					cur = scratch[k]
					size++
				}
			}
			if size > 1 {
				term *= segMass(cur)
			}
		}
		if bits.OnesCount(uint(subset))%2 == 1 {
			total -= term
		} else {
			total += term
		}
	}
	if total <= 0 {
		return prob.Zero()
	}
	return base.Mul(prob.FromFloat(total))
}

// segMass is the total mass of a weight function.
func segMass(segs []wseg) float64 {
	mass := 0.0
	for _, s := range segs {
		mass += s.dens * (float64(s.hi-s.lo) + 1)
	}
	return mass
}

// intersectShifted appends to dst the pointwise product x ↦ a(x)·b(x+off)
// of two sorted, disjoint weight functions, walking both with two pointers.
func intersectShifted(dst, a, b []wseg, off int64) []wseg {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		sb := solver.Interval{Lo: b[j].lo, Hi: b[j].hi}.Shift(-off)
		if sb.Empty() {
			j++
			continue
		}
		lo, hi := max(a[i].lo, sb.Lo), min(a[i].hi, sb.Hi)
		if lo <= hi {
			dst = append(dst, wseg{lo: lo, hi: hi, dens: a[i].dens * b[j].dens})
		}
		if a[i].hi < sb.Hi {
			i++
		} else {
			j++
		}
	}
	return dst
}

// offsetUF is a union-find over component indices that tracks offsets:
// val(i) = val(find(i)) + off.
type offsetUF struct {
	parent []int
	off    []int64
}

func (u *offsetUF) reset() {
	for i := range u.parent {
		u.parent[i] = i
		u.off[i] = 0
	}
}

func (u *offsetUF) find(i int) (int, int64) {
	if u.parent[i] == i {
		return i, 0
	}
	r, off := u.find(u.parent[i])
	u.parent[i] = r
	u.off[i] += off
	return r, u.off[i]
}

// union records val(a) = val(b) + k and reports false when that contradicts
// the equalities already merged.
func (u *offsetUF) union(a, b int, k int64) bool {
	ra, oa := u.find(a)
	rb, ob := u.find(b)
	if ra == rb {
		return oa == ob+k
	}
	u.parent[ra] = rb
	u.off[ra] = ob + k - oa
	return true
}
