package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/programs"
)

var update = flag.Bool("update", false, "rewrite testdata/profiles.golden")

// goldenPrograms are zoo systems whose quick profile finishes well under a
// second yet together cover telescoping, store-counter generalization,
// greybox weighting, the sampling fallback and plain convergence.
// NetWarden stops at depth 3, where its profile already rests on
// disequality components counted by inclusion–exclusion and still takes a
// fraction of a second.
var goldenPrograms = []struct {
	name     string
	maxIters int
}{
	{"simple_router", 5},
	{"lb (S1)", 5},
	{"flowlet (S2)", 5},
	{"NAT (S3)", 5},
	{"NetCache (S6)", 5},
	{"*Flow (S7)", 5},
	{"p40f (S8)", 5},
	{"NetHCF (S9)", 5},
	{"Poise (S10)", 5},
	{"counter (S12)", 5},
	{"htable (S13)", 5},
	{"cmsketch (S14)", 5},
	{"bfilter (S15)", 5},
	{"portknock (eBPF)", 5},
	{"NetWarden (S11)", 3},
}

// TestProfilesGolden pins the rendered profile, plus every block's log10 P
// at nine significant digits, of a set of zoo programs at quick-scale
// settings. Timeout is lifted to an hour so every run ends on MaxIters or
// convergence, never on the clock. Refactors that must not change results
// are checked against a golden written before them; regenerate it only
// with -update.
func TestProfilesGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range goldenPrograms {
		m, ok := programs.ByName(g.name)
		if !ok {
			t.Fatalf("zoo program %q missing", g.name)
		}
		pf, err := ProbProf(m.Build(), programs.OracleFor(m, 1), Options{
			Seed: 1, SampleBudget: 2000, MaxIters: g.maxIters, Workers: 1, Timeout: time.Hour,
		})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		b.WriteString(pf.String())
		for _, n := range pf.Nodes {
			fmt.Fprintf(&b, "log10 %-28s %.9g\n", n.Label, n.P.Log10())
		}
		b.WriteString("\n")
	}
	got := []byte(b.String())
	golden := filepath.Join("testdata", "profiles.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("profiles drifted from %s (rerun with -update only for an intended change)\ngot:\n%s", golden, got)
	}
}
