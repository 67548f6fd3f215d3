package mc

import (
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/prob"
	"repro/internal/solver"
)

// mcSamples is the Monte-Carlo fallback's sample count per component.
const mcSamples = 20000

// monteCarlo estimates the probability of a component that is too entangled
// for closed-form counting. Each class root is drawn from its conditional
// weight function; the hit rate over the samples scales the product of the
// class masses. The RNG is derived deterministically from the counter seed
// and the component's constraints, so estimates are reproducible.
func (c *Counter) monteCarlo(comp component) prob.P {
	// Base: product of class masses (the probability of the "box" before
	// the coupling constraints).
	base := prob.One()
	type classInfo struct {
		root solver.Var
		segs []wseg
		mass float64
		cum  []float64
	}
	infos := make([]classInfo, 0, len(comp.classes))
	for _, cl := range comp.classes {
		segs := punchHoles(c.classSegments(cl), cl.Holes)
		mass := segMass(segs)
		if mass <= 0 {
			return prob.Zero()
		}
		cum := make([]float64, len(segs))
		acc := 0.0
		for i, s := range segs {
			acc += s.dens * (float64(s.hi-s.lo) + 1)
			cum[i] = acc
		}
		infos = append(infos, classInfo{root: cl.Root, segs: segs, mass: mass, cum: cum})
		base = base.Mul(prob.FromFloat(mass))
	}
	if base.IsZero() {
		return prob.Zero()
	}

	h := fnv.New64a()
	for _, d := range comp.diffs {
		h.Write([]byte(d.A.String()))
		h.Write([]byte(d.B.String()))
	}
	for _, g := range comp.generic {
		h.Write([]byte(g.String()))
	}
	for _, cl := range comp.classes {
		h.Write([]byte(cl.Root.String()))
	}
	rng := rand.New(rand.NewSource(c.Seed ^ int64(h.Sum64())))

	hits := 0
	asn := map[solver.Var]uint64{}
	for i := 0; i < mcSamples; i++ {
		for _, ci := range infos {
			asn[ci.root] = sampleSegs(rng, ci.segs, ci.cum, ci.mass)
		}
		if satisfies(comp, asn) {
			hits++
		}
	}
	rate := float64(hits) / mcSamples
	return base.Mul(prob.FromFloat(rate))
}

func sampleSegs(rng *rand.Rand, segs []wseg, cum []float64, mass float64) uint64 {
	u := rng.Float64() * mass
	idx := sort.SearchFloat64s(cum, u) // first i with u <= cum[i]
	if idx == len(segs) {
		idx = len(segs) - 1
	}
	s := segs[idx]
	span := s.hi - s.lo
	if span == ^uint64(0) {
		return rng.Uint64()
	}
	lim := span + 1
	if lim > 1<<62 {
		lim = 1 << 62
	}
	return s.lo + uint64(rng.Int63n(int64(lim)))
}

func satisfies(comp component, asn map[solver.Var]uint64) bool {
	for _, d := range comp.diffs {
		if int64(asn[d.A])-int64(asn[d.B]) > d.C {
			return false
		}
	}
	for _, n := range comp.neqs {
		if int64(asn[n.A]) == int64(asn[n.B])+n.C {
			return false
		}
	}
	for _, g := range comp.generic {
		if !g.Holds(asn) {
			return false
		}
	}
	return true
}
