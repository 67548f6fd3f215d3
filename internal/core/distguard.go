package core

import (
	"repro/internal/greybox"
	"repro/internal/ir"
	"repro/internal/prob"
)

// Store-counter telescoping: register telescoping (telescope.go) cannot see
// counters that live *inside* approximate data structures — a count-min
// estimate or a hash-table per-flow counter compared against a threshold
// (NetCache's hot-key heat ≥ 128, htable.p4's "every N-th packet of a
// flow"). This post-pass generalizes telescoping to those guards: the
// counter advances once per execution of its update block, whose
// steady-state per-packet probability the main loop has already measured,
// so
//
//	threshold guards  (m >= T):  Pr[guard] ≈ Pr[update]^ceil(T/inc)
//	modulo guards (m %% n == r): Pr[guard] ≈ Pr[update] / n   (steady state)
//
// Estimates are attributed like telescoped estimates and only fill blocks
// the main loop never reached.

// distGuard describes one threshold/modulo guard over a store-fed meta
// counter.
type distGuard struct {
	UpdateBlock *ir.Block // block containing the counter update
	Node        *ir.Block // guarded arm
	Inc         uint64    // counter increment per update (≥1)
	Thresh      uint64    // threshold (Ge/Gt/Eq form)
	ModN        uint64    // modulo divisor (modulo form; 0 = threshold form)
	Gt          bool      // strict threshold
}

// findDistGuards scans for guards over metadata fed by sketch estimates or
// hash-table increment counters.
func findDistGuards(p *ir.Program) []distGuard {
	// Map meta name -> (update block, increment).
	type feed struct {
		blk *ir.Block
		inc uint64
	}
	feeds := map[string]feed{}
	var walk func(s ir.Stmt, owner *ir.Block)
	walk = func(s ir.Stmt, owner *ir.Block) {
		switch t := s.(type) {
		case *ir.Block:
			for _, c := range t.Stmts {
				walk(c, t)
			}
		case *ir.If:
			walk(t.Then, owner)
			walk(t.Else, owner)
		case *ir.SketchUpdate:
			if t.Dest != "" {
				feeds[t.Dest] = feed{blk: owner, inc: constOr1(t.Inc)}
			}
		case *ir.HashAccess:
			if t.Dest != "" && t.Write && t.Inc {
				// The counter advances on the hit arm.
				if hb, ok := t.OnHit.(*ir.Block); ok {
					feeds[t.Dest] = feed{blk: hb, inc: constOr1(t.Value)}
				}
			}
			walk(t.OnEmpty, owner)
			walk(t.OnHit, owner)
			walk(t.OnCollide, owner)
		case *ir.BloomOp:
			walk(t.OnHit, owner)
			walk(t.OnMiss, owner)
		case *ir.SketchBranch:
			walk(t.OnTrue, owner)
			walk(t.OnFalse, owner)
		}
	}
	if root, ok := p.Root.(*ir.Block); ok {
		walk(root, root)
	}

	var out []distGuard
	p.Walk(func(s ir.Stmt) {
		f, ok := s.(*ir.If)
		if !ok {
			return
		}
		arm, ok := f.Then.(*ir.Block)
		if !ok {
			return
		}
		cmp, ok := f.Cond.(ir.Cmp)
		if !ok {
			return
		}
		// Threshold form: meta >= T (or > T, == T).
		if m, mok := cmp.A.(ir.MetaRef); mok {
			if k, kok := cmp.B.(ir.Const); kok {
				if fd, has := feeds[m.Name]; has &&
					(cmp.Op == ir.CmpGe || cmp.Op == ir.CmpGt || cmp.Op == ir.CmpEq) {
					out = append(out, distGuard{
						UpdateBlock: fd.blk, Node: arm, Inc: fd.inc,
						Thresh: k.V, Gt: cmp.Op == ir.CmpGt,
					})
				}
			}
		}
		// Modulo form: (meta % n) == r.
		if bin, bok := cmp.A.(ir.Bin); bok && bin.Op == ir.OpMod && cmp.Op == ir.CmpEq {
			m, mok := bin.A.(ir.MetaRef)
			n, nok := bin.B.(ir.Const)
			_, rok := cmp.B.(ir.Const)
			if mok && nok && rok && n.V > 0 {
				if fd, has := feeds[m.Name]; has {
					out = append(out, distGuard{
						UpdateBlock: fd.blk, Node: arm, Inc: fd.inc, ModN: n.V,
					})
				}
			}
		}
	})
	return out
}

func constOr1(e ir.Expr) uint64 {
	if c, ok := e.(ir.Const); ok && c.V > 0 {
		return c.V
	}
	return 1
}

// distGuardEstimates derives estimates for unreached dist-guarded blocks
// from the main loop's per-block probabilities. Store counters are
// per-key: a given flow's counter advances only when *that flow's* packet
// executes the update, so the per-packet advance probability is the update
// block's probability times the key-repeat factor greybox.DefaultLocality.
func distGuardEstimates(p *ir.Program, blockProb func(id int) (prob.P, bool)) map[int]prob.P {
	out := map[int]prob.P{}
	for _, g := range findDistGuards(p) {
		if g.UpdateBlock == nil {
			continue
		}
		q, ok := blockProb(g.UpdateBlock.ID)
		if !ok || q.IsZero() {
			continue
		}
		var est prob.P
		if g.ModN > 0 {
			// Steady state: every ModN-th advance of some flow's counter.
			est = q.Mul(prob.FromFloat(1 / float64(g.ModN)))
		} else {
			need := g.Thresh
			if g.Gt {
				need++
			}
			if need == 0 {
				continue
			}
			rept := (need + g.Inc - 1) / g.Inc
			est = q.Mul(prob.FromFloat(greybox.DefaultLocality)).Pow(float64(rept))
		}
		for _, blk := range ir.Blocks(g.Node) {
			if cur, has := out[blk.ID]; has {
				out[blk.ID] = cur.Add(est)
			} else {
				out[blk.ID] = est
			}
		}
	}
	return out
}
