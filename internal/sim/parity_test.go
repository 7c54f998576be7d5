package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/agentplan"
	"repro/internal/cycles"
	"repro/internal/datasets"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/testmaps"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// requireRunParity replays plan with Run and with the two-pass oracle and
// requires identical results: violations in the same order, and tallies.
func requireRunParity(t *testing.T, name string, w *warehouse.Warehouse, plan *warehouse.Plan, wl warehouse.Workload) {
	t.Helper()
	got, want := Run(w, plan, wl), referenceRun(w, plan, wl)
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := 0; i < len(got.Violations) || i < len(want.Violations); i++ {
		var g, o string
		if i < len(got.Violations) {
			g = got.Violations[i].Error()
		}
		if i < len(want.Violations) {
			o = want.Violations[i].Error()
		}
		if g != o {
			t.Fatalf("%s: violation %d is %q, oracle %q", name, i, g, o)
		}
	}
	got.Violations, want.Violations = nil, nil
	t.Fatalf("%s: result %+v, oracle %+v", name, got, want)
}

// realize synthesizes a route-packed cycle set at the paper's horizon
// T = 3600 and realizes it for T timesteps.
func realize(t testing.TB, s *traffic.System, wl warehouse.Workload, T int) *warehouse.Plan {
	t.Helper()
	cs, err := cycles.Synthesize(s, wl, 3600, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := agentplan.Realize(cs, wl, T)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestRunMatchesReferenceTableI pins the fused sweep to the two-pass
// oracle on the realized plans of all nine Table I instances.
func TestRunMatchesReferenceTableI(t *testing.T) {
	insts, err := testmaps.TableI()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		requireRunParity(t, in.Name, in.Map.W, realize(t, in.Map.S, in.WL, 3600), in.WL)
	}
}

// TestRunMatchesReferenceCorpus does the same for every seed-1 corpus
// instance whose route-packed or contract-synthesized cycle set realizes.
func TestRunMatchesReferenceCorpus(t *testing.T) {
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
			plan, _, err := agentplan.Realize(cs, in.WL, in.T)
			if err != nil {
				continue
			}
			reached++
			requireRunParity(t, in.Name, in.Sys.W, plan, in.WL)
		}
	}
	if reached == 0 {
		t.Fatal("no corpus instance reached realization")
	}
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

// fuzzBase is a realized plan to corrupt, with its warehouse re-stocked at
// every cap the fuzzer can pick: stockCaps[c] holds Λ clamped to c units
// per cell for c < len-1, and the original warehouse last.
type fuzzBase struct {
	stockCaps []*warehouse.Warehouse
	plan      *warehouse.Plan
	wl        warehouse.Workload
}

func newFuzzBase(t testing.TB, w *warehouse.Warehouse, plan *warehouse.Plan, wl warehouse.Workload) fuzzBase {
	t.Helper()
	b := fuzzBase{plan: plan, wl: wl}
	for c := 0; c < 7; c++ {
		stock := make([][]int, len(w.Stock))
		for k, row := range w.Stock {
			if row == nil {
				continue
			}
			stock[k] = make([]int, len(row))
			for l, u := range row {
				stock[k][l] = min(u, c)
			}
		}
		capped, err := warehouse.New(w.Graph, w.ShelfAccess, w.Stations, w.NumProducts, stock)
		if err != nil {
			t.Fatal(err)
		}
		b.stockCaps = append(b.stockCaps, capped)
	}
	b.stockCaps = append(b.stockCaps, w)
	return b
}

// Corruptions FuzzRunParity applies, selected by an op's first byte.
const (
	corruptTeleport = iota
	corruptCollision
	corruptSwap
	corruptPick
	corruptDrop
	corruptMutate
	corruptOverdraw
	numCorruptions
)

// corrupt applies ops, five bytes each (kind, agent, timestep low and high
// byte, argument), to plan in place. Vertices may leave the grid; carried
// products stay in ρ0 ∪ ρ, the domain the oracle is defined on.
func corrupt(w *warehouse.Warehouse, plan *warehouse.Plan, ops []byte) {
	c, T := plan.NumAgents(), plan.Horizon()
	nv, np := w.Graph.NumVertices(), w.NumProducts
	if c == 0 || T < 2 || np == 0 {
		return
	}
	for ; len(ops) >= 5; ops = ops[5:] {
		kind, i, arg := int(ops[0])%numCorruptions, int(ops[1])%c, int(ops[4])
		t := (int(ops[2]) | int(ops[3])<<8) % (T - 1)
		j := arg % c
		// Agent i's states at t and t+1 are cur and next, agent j's other
		// and otherNext. They are edited as values and written back, j's
		// first, so that with i == j agent i's edits win.
		row, nextRow := plan.Row(t), plan.Row(t+1)
		cur, next := row.At(i), nextRow.At(i)
		other, otherNext := row.At(j), nextRow.At(j)
		switch kind {
		case corruptTeleport:
			cur.Vertex = grid.VertexID(arg%(nv+4) - 2)
		case corruptCollision:
			cur.Vertex = other.Vertex
		case corruptSwap:
			next.Vertex, otherNext.Vertex = other.Vertex, cur.Vertex
		case corruptPick:
			cur.Carried = warehouse.NoProduct
			next.Carried = warehouse.ProductID(arg % np)
		case corruptDrop:
			cur.Carried = warehouse.ProductID(arg % np)
			next.Carried = warehouse.NoProduct
		case corruptMutate:
			cur.Carried = warehouse.ProductID(arg%(np+1) - 1)
		case corruptOverdraw:
			// An extra pickup of a stocked product at a shelf.
			if len(w.ShelfAccess) == 0 {
				continue
			}
			v := w.ShelfAccess[arg%len(w.ShelfAccess)]
			if ks := w.ProductsAt(v); len(ks) > 0 {
				cur = warehouse.AgentState{Vertex: v, Carried: warehouse.NoProduct}
				next.Carried = ks[arg%len(ks)]
			}
		}
		row.Set(j, other)
		nextRow.Set(j, otherNext)
		row.Set(i, cur)
		nextRow.Set(i, next)
	}
}

// FuzzRunParity corrupts realized plans (teleports, vertex collisions, edge
// swaps, pickups at non-stocking vertices, off-station drops, carried-product
// mutations, and stock over-draws, the last also by re-stocking the
// warehouse below what the plan picks) and requires the fused sweep to
// report exactly the oracle's violations, in order, and the same tallies.
func FuzzRunParity(f *testing.F) {
	ringW, ringS := testmaps.MustRing()
	ringWL, err := warehouse.NewWorkload(ringW, []int{6, 4})
	if err != nil {
		f.Fatal(err)
	}
	ringPlan := realize(f, ringS, ringWL, 300)
	insts, err := testmaps.TableI()
	if err != nil {
		f.Fatal(err)
	}
	sc := insts[0] // SortingCenter-160, realized for 200 steps
	bases := []fuzzBase{
		newFuzzBase(f, ringW, ringPlan, ringWL),
		newFuzzBase(f, sc.Map.W, realize(f, sc.Map.S, sc.WL, 200), sc.WL),
	}

	for kind := 0; kind < numCorruptions; kind++ {
		for base := uint8(0); base < 2; base++ {
			f.Add(base, uint8(7), []byte{byte(kind), 1, 40, 0, 3})
			f.Add(base, uint8(kind), []byte{byte(kind), 0, 90, 0, 11, byte(kind + 1), 2, 7, 0, 200})
		}
	}
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, base, stockCap uint8, ops []byte) {
		b := bases[int(base)%len(bases)]
		w := b.stockCaps[int(stockCap)%len(b.stockCaps)]
		plan := warehouse.NewPlan(b.plan.NumAgents(), b.plan.Horizon())
		for t := 0; t < plan.Horizon(); t++ {
			copy(plan.Row(t), b.plan.Row(t))
		}
		corrupt(w, plan, ops)
		requireRunParity(t, "fuzz", w, plan, b.wl)
	})
}
