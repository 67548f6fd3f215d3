package sym

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/programs"
	"repro/internal/solver"
)

// TestCarriedSystemMatchesBuild steps every zoo program two packets, in
// greybox and in baseline mode, on two workers, and checks that every live
// path's carried system is exactly solver.Build of its whole path
// condition: the same classes, diffs, neqs and generic residue. Between
// the packets Step drops the systems and the paths merge, as in a profile.
// Programs whose first packet outgrows the path budget are skipped.
func TestCarriedSystemMatchesBuild(t *testing.T) {
	checked := 0
	for _, m := range programs.All() {
		for _, greybox := range []bool{true, false} {
			prog := m.Build()
			e := NewEngine(prog, Options{Greybox: greybox, Merge: true, MaxPaths: 1 << 12, Workers: 2})
			counter := mc.NewCounter(e.Space, nil)
			paths := e.Initial()
			for pkt := 0; pkt < 2; pkt++ {
				out, err := e.step(paths, pkt)
				if errors.Is(err, ErrBudget) {
					t.Logf("%s greybox=%v: path budget exceeded on packet %d", m.Name, greybox, pkt)
					break
				}
				if err != nil {
					t.Fatalf("%s greybox=%v pkt %d: %v", m.Name, greybox, pkt, err)
				}
				for i, p := range out {
					if p.sys == nil {
						continue // no feasibility check on this packet
					}
					if want := solver.Build(p.PC, e.Space); !reflect.DeepEqual(p.sys, want) {
						t.Fatalf("%s greybox=%v pkt %d path %d: carried system\n%s\ndiffers from Build of %v\n%s",
							m.Name, greybox, pkt, i, describe(p.sys), p.PC, describe(want))
					}
					checked++
					p.sys = nil
				}
				paths = Merge(out, counter)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no path carried a system")
	}
	t.Logf("%d carried systems match Build", checked)
}

// describe lists a system's classes and constraints for a failure message.
func describe(s *solver.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  feasible %v\n", s.Feasible)
	for _, c := range s.Classes {
		fmt.Fprintf(&b, "  %+v\n", *c)
	}
	fmt.Fprintf(&b, "  diffs %v neqs %v generic %v", s.Diffs, s.Neqs, s.Generic)
	return b.String()
}
