package sim

import (
	"errors"
	"testing"

	"repro/internal/agentplan"
	"repro/internal/cycles"
	"repro/internal/maps"
	"repro/internal/testmaps"
	"repro/internal/warehouse"
)

func TestRunCountsDeliveriesAndMoves(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{6, 4})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cycles.Synthesize(s, wl, 800, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, stats, err := agentplan.Realize(cs, wl, 800)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(w, plan, wl)
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations[0])
	}
	if res.Delivered[0] != stats.Delivered[0] || res.Delivered[1] != stats.Delivered[1] {
		t.Errorf("sim delivered %v, realization says %v", res.Delivered, stats.Delivered)
	}
	if res.ServicedAt != stats.ServicedAt {
		t.Errorf("sim ServicedAt %d, realization %d", res.ServicedAt, stats.ServicedAt)
	}
	if got, want := res.Moves+res.Waits, plan.NumAgents()*(plan.Horizon()-1); got != want {
		t.Errorf("moves+waits = %d, want %d", got, want)
	}
	if len(res.DeliveryTimes) != res.Delivered[0]+res.Delivered[1] {
		t.Errorf("delivery events %d, delivered %v", len(res.DeliveryTimes), res.Delivered)
	}
	// Ten deliveries across the ring take at least a loop's worth of loaded
	// travel each.
	if res.Carrying < 10 {
		t.Errorf("Carrying = %d, want >= 10 loaded agent-steps", res.Carrying)
	}
	for i := 1; i < len(res.DeliveryTimes); i++ {
		if res.DeliveryTimes[i] < res.DeliveryTimes[i-1] {
			t.Error("DeliveryTimes not sorted")
			break
		}
	}
}

func TestRunZeroWorkloadServicedImmediately(t *testing.T) {
	w, _ := testmaps.MustRing()
	wl := warehouse.Workload{Units: []int{0, 0}}
	plan := &warehouse.Plan{}
	res := Run(w, plan, wl)
	if res.ServicedAt != 0 {
		t.Errorf("ServicedAt = %d, want 0", res.ServicedAt)
	}
}

func TestThroughputBinning(t *testing.T) {
	res := Result{DeliveryTimes: []int{1, 5, 9, 10, 19, 25}}
	bins := Throughput(res, 30, 10)
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if bins[0] != 3 || bins[1] != 2 || bins[2] != 1 {
		t.Errorf("bins = %v, want [3 2 1]", bins)
	}
	if Throughput(res, 0, 10) != nil || Throughput(res, 30, 0) != nil {
		t.Error("degenerate Throughput inputs should return nil")
	}
}

func TestWindowStreamingMatchesThroughput(t *testing.T) {
	res := Result{DeliveryTimes: []int{25, 1, 5, 9, 10, 19}}
	w := NewWindow(10)
	for _, ts := range res.DeliveryTimes {
		w.Observe(ts)
	}
	bins := w.Bins()
	want := Throughput(res, 30, 10)
	if len(bins) != len(want) {
		t.Fatalf("bins = %v, want %v", bins, want)
	}
	for i := range bins {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
	if w.Total() != len(res.DeliveryTimes) {
		t.Errorf("Total = %d, want %d", w.Total(), len(res.DeliveryTimes))
	}
	if w.Width() != 10 {
		t.Errorf("Width = %d, want 10", w.Width())
	}
}

func TestWindowGrowsOnDemand(t *testing.T) {
	w := NewWindow(4)
	if got := w.Bins(); len(got) != 0 {
		t.Fatalf("fresh window bins = %v, want empty", got)
	}
	w.Observe(-3) // ignored
	w.Observe(9)
	w.Observe(0)
	bins := w.Bins()
	if len(bins) != 3 || bins[0] != 1 || bins[1] != 0 || bins[2] != 1 {
		t.Errorf("bins = %v, want [1 0 1]", bins)
	}
	// Mutating the returned slice must not alias internal state.
	bins[0] = 99
	if w.Bins()[0] != 1 {
		t.Error("Bins must return a copy")
	}
	if NewWindow(0).Width() != 1 {
		t.Error("non-positive width should clamp to 1")
	}
}

// TestRunRaggedPlan: a plan whose agent 1 has fewer states than agent 0
// used to panic in Run's tally loop after validation had already reported
// it. A plan is now built whole, so a ragged one never reaches Run:
// PlanFromRows refuses the rows with the violation Run used to report.
func TestRunRaggedPlan(t *testing.T) {
	w, _ := testmaps.MustRing()
	v := w.Stations[0]
	plan, err := warehouse.PlanFromRows([][]warehouse.AgentState{
		{{Vertex: v, Carried: warehouse.NoProduct}, {Vertex: v, Carried: warehouse.NoProduct}},
		{{Vertex: v + 1, Carried: warehouse.NoProduct}},
	})
	if plan != nil {
		t.Fatalf("ragged rows built a plan of %d agents over %d steps", plan.NumAgents(), plan.Horizon())
	}
	var pv warehouse.PlanViolation
	if !errors.As(err, &pv) {
		t.Fatalf("error = %v, want a plan violation", err)
	}
	if pv.Agent != 1 || pv.Condition != 1 || pv.Detail != "agent has 1 states, want 2" {
		t.Errorf("violation = %+v, want agent 1's row length", pv)
	}
}

// TestRunProductOutsideRho: dropping a product outside ρ at a station used
// to panic indexing Delivered. Run must report it under condition (3) and
// leave it out of every tally.
func TestRunProductOutsideRho(t *testing.T) {
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	w := m.W
	v := w.Stations[0]
	plan, err := warehouse.PlanFromRows([][]warehouse.AgentState{
		{{Vertex: v, Carried: 999}, {Vertex: v, Carried: 999}, {Vertex: v, Carried: warehouse.NoProduct}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(w, plan, warehouse.Workload{Units: make([]int, w.NumProducts)})
	if len(res.Violations) == 0 {
		t.Fatal("plan carrying product 999 accepted")
	}
	for _, v := range res.Violations {
		if v.Condition != 3 {
			t.Errorf("violation %v, want condition 3", v)
		}
	}
	if res.Carrying != 0 || len(res.DeliveryTimes) != 0 {
		t.Errorf("product outside ρ tallied: Carrying=%d DeliveryTimes=%v", res.Carrying, res.DeliveryTimes)
	}
	for k, n := range res.Delivered {
		if n != 0 {
			t.Errorf("Delivered[%d] = %d, want 0", k, n)
		}
	}
}
