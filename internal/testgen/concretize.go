package testgen

import (
	"context"

	"repro/internal/dut"
	"repro/internal/ir"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/trace"
)

// solvePhase invokes the solver on the plan's path condition and lays the
// witness into packet headers (the paper's final SAT/SMT invocation).
func solvePhase(ctx context.Context, prog *ir.Program, plan *pathPlan, seed int64) ([]trace.Packet, bool) {
	asn, ok := solver.Solve(plan.Path.PC, plan.Engine.Space, solver.SolveOptions{Seed: seed, Ctx: ctx})
	if !ok {
		return nil, false
	}
	pkts := make([]trace.Packet, plan.Length)
	for i := range pkts {
		pkts[i] = defaultPacket(prog, i, seed)
		for _, f := range prog.Fields {
			if v, has := asn[solver.Var{Pkt: i, Field: f.Name}]; has {
				pkts[i].SetField(f.Name, v)
			}
		}
	}
	// Masked derived variables ("tcp_flags&18") constrain bits of their
	// base field; overlay them after direct assignments.
	for v, val := range asn {
		base, mask, ok := v.Mask()
		if !ok || v.Pkt < 0 || v.Pkt >= len(pkts) {
			continue
		}
		cur, _ := pkts[v.Pkt].Field(base)
		pkts[v.Pkt].SetField(base, (cur&^mask)|val)
	}
	return pkts, true
}

// defaultPacket fills plausible defaults; per-packet distinct flow fields
// keep unconstrained accesses landing on fresh hash slots.
func defaultPacket(prog *ir.Program, i int, seed int64) trace.Packet {
	var p trace.Packet
	p.TS = uint64(i) * 1000
	p.Proto = ir.ProtoTCP
	p.TTL = 64
	p.Len = 100
	p.IPD = 1
	p.SrcIP = uint32(0x0A000000 + i + int(seed&0xff)*1000)
	p.DstIP = 0xC0A80001
	p.SrcPort = uint16(20000 + i)
	p.DstPort = 80
	p.Seq = uint32(1000 * (i + 1))
	for _, f := range prog.Fields {
		if _, std := p.Field(f.Name); !std {
			p.SetField(f.Name, 0)
		}
	}
	return p
}

// occupant records a key installed into a store during havocing.
type occupant struct {
	slot uint64
	key  []uint64
	pkt  int
}

// havocPhase reconciles greybox arm decisions with concrete key material:
// hits reuse a previously inserted key, empties take fresh keys landing on
// free slots, and collisions are found by brute-force CRC search — the
// role the rainbow table plays for KLEE-style havocing. The collision
// search is the one unbounded-feeling loop here (store size × 64 probes),
// so it stride-checks ctx; a canceled havoc returns what it has and lets
// the caller's validation fail the sequence.
func havocPhase(ctx context.Context, prog *ir.Program, plan *pathPlan, pkts []trace.Packet, seed int64) (freshFields []FreshField, hasCollisions bool) {
	inserted := map[string][]occupant{} // store -> insertion history
	fresh := uint64(seed&0xffff) + 1

	keyFieldsCache := map[string][]string{}
	keyFields := func(store string) []string {
		if f, ok := keyFieldsCache[store]; ok {
			return f
		}
		f := keyFieldsFor(prog, store)
		keyFieldsCache[store] = f
		return f
	}

	constrained := constrainedVars(plan.Path.PC)

	for _, ch := range plan.Path.GreyChoices {
		if ch.Pkt < 0 || ch.Pkt >= len(pkts) {
			continue
		}
		pkt := &pkts[ch.Pkt]
		fields := keyFields(ch.Store)
		if len(fields) == 0 {
			continue
		}
		decl, isHash := prog.HashTable(ch.Store)
		free := freeFields(fields, ch.Pkt, constrained)

		switch ch.Arm {
		case sym.ArmHit, sym.ArmBloomHit:
			// Reuse the most recent key inserted into this store.
			if hist := inserted[ch.Store]; len(hist) > 0 {
				src := hist[len(hist)-1]
				for fi, f := range fields {
					if fi < len(src.key) {
						pkt.SetField(f, src.key[fi])
					}
				}
			}
		case sym.ArmEmpty, sym.ArmBloomMiss:
			// Fresh key; for hash tables also require a free slot.
			if len(free) > 0 {
				freshFields = append(freshFields, FreshField{Pkt: ch.Pkt, Field: free[0]})
			}
			for attempt := 0; attempt < 4096; attempt++ {
				if len(free) > 0 {
					pkt.SetField(free[0], fresh)
					fresh++
				}
				if !isHash {
					break
				}
				key := keyValues(pkt, fields)
				slot := dut.HashOf(decl.Seed, key, uint64(decl.Size))
				if !slotTaken(inserted[ch.Store], slot) || len(free) == 0 {
					break
				}
			}
			key := keyValues(pkt, fields)
			if isHash {
				slot := dut.HashOf(decl.Seed, key, uint64(decl.Size))
				inserted[ch.Store] = append(inserted[ch.Store], occupant{slot: slot, key: key, pkt: ch.Pkt})
			} else {
				inserted[ch.Store] = append(inserted[ch.Store], occupant{key: key, pkt: ch.Pkt})
			}
		case sym.ArmCollide:
			// Find a different key hashing to an existing occupant's slot.
			hasCollisions = true
			hist := inserted[ch.Store]
			if len(hist) == 0 || !isHash || len(free) == 0 {
				continue
			}
			victim := hist[len(hist)-1]
			limit := decl.Size * 64
			for attempt := 0; attempt < limit; attempt++ {
				if attempt%64 == 63 && ctx.Err() != nil {
					return freshFields, hasCollisions
				}
				pkt.SetField(free[0], fresh)
				fresh++
				key := keyValues(pkt, fields)
				if keysDiffer(key, victim.key) &&
					dut.HashOf(decl.Seed, key, uint64(decl.Size)) == victim.slot {
					break
				}
			}
		case sym.ArmSketchTrue, sym.ArmSketchFalse:
			// Sketch thresholds are driven by repetition, which the plan's
			// hit arms already arrange; nothing to do per access.
		}
	}
	return freshFields, hasCollisions
}

// keyFieldsFor returns the ordered header fields a store is keyed by.
func keyFieldsFor(prog *ir.Program, store string) []string {
	var out []string
	seen := map[string]bool{}
	collect := func(keys []ir.Expr) {
		if out != nil {
			return // first access wins; all zoo accesses agree per store
		}
		var fs []string
		for _, k := range keys {
			if fr, ok := k.(ir.FieldRef); ok && !seen[fr.Name] {
				fs = append(fs, fr.Name)
				seen[fr.Name] = true
			}
		}
		out = fs
	}
	prog.Walk(func(s ir.Stmt) {
		switch t := s.(type) {
		case *ir.HashAccess:
			if t.Store == store {
				collect(t.Key)
			}
		case *ir.BloomOp:
			if t.Filter == store {
				collect(t.Key)
			}
		case *ir.SketchUpdate:
			if t.Sketch == store {
				collect(t.Key)
			}
		case *ir.SketchBranch:
			if t.Sketch == store {
				collect(t.Key)
			}
		}
	})
	return out
}

func keyValues(p *trace.Packet, fields []string) []uint64 {
	out := make([]uint64, len(fields))
	for i, f := range fields {
		out[i], _ = p.Field(f)
	}
	return out
}

func keysDiffer(a, b []uint64) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

func slotTaken(hist []occupant, slot uint64) bool {
	for _, o := range hist {
		if o.slot == slot {
			return true
		}
	}
	return false
}

// constrainedVars collects every variable the path condition mentions;
// havocing must not disturb them.
func constrainedVars(pc []solver.Constraint) map[solver.Var]bool {
	out := map[solver.Var]bool{}
	for _, c := range pc {
		for _, v := range c.E.Vars() {
			out[v] = true
		}
	}
	return out
}

// freeFields returns the key fields of a packet the solver left
// unconstrained, preferring high-entropy flow identifiers.
func freeFields(fields []string, pkt int, constrained map[solver.Var]bool) []string {
	var out []string
	prefer := []string{"src_port", "src_ip", "key", "dst_port", "dst_ip"}
	add := func(f string) {
		if !constrained[solver.Var{Pkt: pkt, Field: f}] {
			out = append(out, f)
		}
	}
	for _, p := range prefer {
		for _, f := range fields {
			if f == p {
				add(f)
			}
		}
	}
	for _, f := range fields {
		dup := false
		for _, o := range out {
			if o == f {
				dup = true
			}
		}
		if !dup {
			add(f)
		}
	}
	return out
}
