package agentplan

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cycles"
	"repro/internal/datasets"
	"repro/internal/flow"
	"repro/internal/testmaps"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// parityCase is one cycle set realized by both Realize and the cell-scan
// oracle.
type parityCase struct {
	name string
	cs   *cycles.Set
	wl   warehouse.Workload
}

// tableICases synthesizes the nine Table I cycle sets at the paper's
// horizon T = 3600.
func tableICases(t testing.TB) []parityCase {
	t.Helper()
	insts, err := testmaps.TableI()
	if err != nil {
		t.Fatal(err)
	}
	var out []parityCase
	for _, in := range insts {
		cs, err := cycles.Synthesize(in.Map.S, in.WL, 3600, cycles.Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		out = append(out, parityCase{in.Name, cs, in.WL})
	}
	return out
}

// requireParity realizes c at horizon T with Realize and with the oracle
// and requires identical errors, plans and statistics.
func requireParity(t *testing.T, c parityCase, T int) {
	t.Helper()
	got, gotStats, gotErr := Realize(c.cs, c.wl, T)
	want, wantStats, wantErr := referenceRealize(c.cs, c.wl, T)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s T=%d: error %v, oracle %v", c.name, T, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("%s T=%d: stats %+v, oracle %+v", c.name, T, gotStats, wantStats)
	}
	if got.NumAgents() != want.NumAgents() || got.Horizon() != want.Horizon() {
		t.Fatalf("%s T=%d: plan %dx%d, oracle %dx%d", c.name, T,
			got.NumAgents(), got.Horizon(), want.NumAgents(), want.Horizon())
	}
	for tt := 0; tt < want.Horizon(); tt++ {
		g, o := got.Row(tt), want.Row(tt)
		for i := range o {
			if g.At(i) != o.At(i) {
				t.Fatalf("%s T=%d: agent %d at t=%d is %+v, oracle %+v", c.name, T, i, tt, g.At(i), o.At(i))
			}
		}
	}
}

// TestRealizeMatchesReferenceTableI pins the per-component queue
// realization to the cell-scan oracle on every Table I instance, at the
// paper's horizon, at a shorter one, and at T = 37, which is not a
// multiple of any instance's cycle time.
func TestRealizeMatchesReferenceTableI(t *testing.T) {
	for _, c := range tableICases(t) {
		if 37%c.cs.Tc == 0 {
			t.Fatalf("%s: T=37 is a multiple of tc=%d", c.name, c.cs.Tc)
		}
		for _, T := range []int{3600, 1000, 37} {
			requireParity(t, c, T)
		}
	}
}

// TestRealizeMatchesReferenceCorpus covers the seed-1 scenario corpus: every
// instance whose route-packed or contract-synthesized cycle set reaches
// realization is realized by both implementations at its own horizon.
func TestRealizeMatchesReferenceCorpus(t *testing.T) {
	insts, err := datasets.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	for _, in := range insts {
		var sets []*cycles.Set
		if cs, err := cycles.Synthesize(in.Sys, in.WL, in.T, cycles.Options{}); err == nil {
			sets = append(sets, cs)
		}
		if cs := contractCycles(in.Sys, in.WL, in.T); cs != nil {
			sets = append(sets, cs)
		}
		for _, cs := range sets {
			reached++
			requireParity(t, parityCase{in.Name, cs, in.WL}, in.T)
		}
	}
	if reached == 0 {
		t.Fatal("no corpus instance reached realization")
	}
	t.Logf("%d corpus cycle sets realized", reached)
}

// contractCycles returns the contract pipeline's cycle set for an instance,
// or nil when synthesis does not produce one within a small node budget.
func contractCycles(s *traffic.System, wl warehouse.Workload, T int) *cycles.Set {
	set, err := flow.SynthesizeContract(context.Background(), s, wl, T, flow.Options{MaxNodes: 2000})
	if err != nil {
		return nil
	}
	cs, err := cycles.FromFlowSet(set, wl)
	if err != nil {
		return nil
	}
	return cs
}
