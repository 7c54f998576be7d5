package warehouse

import (
	"errors"
	"testing"

	"repro/internal/grid"
)

// paperFig1 builds the warehouse of Fig. 1: a 5x3 floorplan with shelves at
// (1,2) and (3,2), shelf access at (0,2), (2,2), (4,2), stations at (1,0)
// and (3,0), and the location matrix Λ = [[10 10 0] [0 10 10]].
func paperFig1(t *testing.T) *Warehouse {
	t.Helper()
	g, _, _, err := grid.Parse(".@.@.\n.....\n.T.T.")
	if err != nil {
		t.Fatal(err)
	}
	shelfAccess := []grid.VertexID{
		g.At(grid.Coord{X: 0, Y: 2}),
		g.At(grid.Coord{X: 2, Y: 2}),
		g.At(grid.Coord{X: 4, Y: 2}),
	}
	stations := []grid.VertexID{
		g.At(grid.Coord{X: 1, Y: 0}),
		g.At(grid.Coord{X: 3, Y: 0}),
	}
	stock := [][]int{
		{10, 10, 0},
		{0, 10, 10},
	}
	w, err := New(g, shelfAccess, stations, 2, stock)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPaperFig1Model(t *testing.T) {
	w := paperFig1(t)
	if got := w.TotalStock(0); got != 20 {
		t.Errorf("TotalStock(0) = %d, want 20", got)
	}
	mid := w.ShelfAccess[1]
	if got := len(w.ProductsAt(mid)); got != 2 {
		t.Errorf("ProductsAt(middle) = %d products, want 2", got)
	}
	left := w.ShelfAccess[0]
	if got := w.UnitsAt(left, 1); got != 0 {
		t.Errorf("UnitsAt(left, ρ2) = %d, want 0", got)
	}
	if w.IsStation(left) {
		t.Error("shelf access vertex reported as station")
	}
	if !w.IsStation(w.Stations[0]) {
		t.Error("station vertex not reported as station")
	}
	if got := w.ShelfColumn(w.Stations[0]); got != -1 {
		t.Errorf("ShelfColumn(station) = %d, want -1", got)
	}
	if got := w.ShelfColumn(mid); got != 1 {
		t.Errorf("ShelfColumn(mid) = %d, want 1", got)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	g, _, _, err := grid.Parse("...\n...")
	if err != nil {
		t.Fatal(err)
	}
	v0, v1 := g.At(grid.Coord{X: 0, Y: 0}), g.At(grid.Coord{X: 1, Y: 0})
	cases := []struct {
		name    string
		shelves []grid.VertexID
		sts     []grid.VertexID
		np      int
		stock   [][]int
	}{
		{"dupShelf", []grid.VertexID{v0, v0}, nil, 0, [][]int{}},
		{"dupStation", nil, []grid.VertexID{v1, v1}, 0, [][]int{}},
		{"overlap", []grid.VertexID{v0}, []grid.VertexID{v0}, 0, [][]int{}},
		{"outOfRange", []grid.VertexID{99}, nil, 0, [][]int{}},
		{"stockRows", []grid.VertexID{v0}, nil, 2, [][]int{{1}}},
		{"stockCols", []grid.VertexID{v0}, nil, 1, [][]int{{1, 2}}},
		{"negStock", []grid.VertexID{v0}, nil, 1, [][]int{{-1}}},
		{"negProducts", nil, nil, -1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(g, tc.shelves, tc.sts, tc.np, tc.stock); err == nil {
				t.Error("New succeeded, want error")
			}
		})
	}
	if _, err := New(nil, nil, nil, 0, [][]int{}); err == nil {
		t.Error("New(nil grid) succeeded")
	}
}

func TestWorkloadValidation(t *testing.T) {
	w := paperFig1(t)
	if _, err := NewWorkload(w, []int{5, 5}); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	if _, err := NewWorkload(w, []int{5}); err == nil {
		t.Error("short workload accepted")
	}
	if _, err := NewWorkload(w, []int{-1, 0}); err == nil {
		t.Error("negative workload accepted")
	}
	if _, err := NewWorkload(w, []int{21, 0}); err == nil {
		t.Error("over-stock workload accepted")
	}
	wl, _ := NewWorkload(w, []int{3, 4})
	if wl.TotalUnits() != 7 {
		t.Errorf("TotalUnits = %d, want 7", wl.TotalUnits())
	}
}

// handPlan builds a 1-agent plan walking a vertex/product sequence.
func handPlan(states ...AgentState) *Plan {
	return rowsPlan(states)
}

// rowsPlan builds a plan from per-agent rows of equal length.
func rowsPlan(rows ...[]AgentState) *Plan {
	p, err := PlanFromRows(rows)
	if err != nil {
		panic(err)
	}
	return p
}

func TestValidatePlanAcceptsLegalTour(t *testing.T) {
	w := paperFig1(t)
	g := w.Graph
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	// Start at shelf access (2,2) carrying nothing, pick ρ1, walk to station
	// (1,0), drop, done.
	p := handPlan(
		AgentState{at(2, 2), NoProduct},
		AgentState{at(2, 2), 0}, // pickup at shelf access
		AgentState{at(2, 1), 0},
		AgentState{at(1, 1), 0},
		AgentState{at(1, 0), 0},
		AgentState{at(1, 0), NoProduct}, // drop at station
	)
	if v := ValidatePlan(w, p); len(v) != 0 {
		t.Fatalf("legal plan rejected: %v", v)
	}
	got := Delivered(w, p)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("Delivered = %v, want [1 0]", got)
	}
	wl, _ := NewWorkload(w, []int{1, 0})
	if ok, v := Services(w, p, wl); !ok {
		t.Errorf("Services = false: %v", v)
	}
	wl2, _ := NewWorkload(w, []int{2, 0})
	if ok, _ := Services(w, p, wl2); ok {
		t.Error("under-delivering plan reported as servicing")
	}
}

func TestValidatePlanCatchesTeleport(t *testing.T) {
	w := paperFig1(t)
	g := w.Graph
	p := handPlan(
		AgentState{g.At(grid.Coord{X: 0, Y: 0}), NoProduct},
		AgentState{g.At(grid.Coord{X: 4, Y: 0}), NoProduct},
	)
	v := ValidatePlan(w, p)
	if len(v) != 1 || v[0].Condition != 1 {
		t.Errorf("violations = %v, want one condition-1", v)
	}
}

func TestValidatePlanCatchesVertexConflict(t *testing.T) {
	w := paperFig1(t)
	v0 := w.Graph.At(grid.Coord{X: 0, Y: 0})
	p := rowsPlan(
		[]AgentState{{v0, NoProduct}},
		[]AgentState{{v0, NoProduct}},
	)
	vs := ValidatePlan(w, p)
	if len(vs) != 1 || vs[0].Condition != 2 {
		t.Errorf("violations = %v, want one condition-2", vs)
	}
}

func TestValidatePlanCatchesEdgeSwap(t *testing.T) {
	w := paperFig1(t)
	g := w.Graph
	a := g.At(grid.Coord{X: 0, Y: 0})
	b := g.At(grid.Coord{X: 1, Y: 0})
	p := rowsPlan(
		[]AgentState{{a, NoProduct}, {b, NoProduct}},
		[]AgentState{{b, NoProduct}, {a, NoProduct}},
	)
	vs := ValidatePlan(w, p)
	if len(vs) != 1 || vs[0].Condition != 2 {
		t.Errorf("violations = %v, want one condition-2 swap", vs)
	}
}

func TestValidatePlanCatchesIllegalPickup(t *testing.T) {
	w := paperFig1(t)
	g := w.Graph
	// Picking ρ2 at the left shelf access, which stocks only ρ1.
	left := g.At(grid.Coord{X: 0, Y: 2})
	p := handPlan(AgentState{left, NoProduct}, AgentState{left, 1})
	vs := ValidatePlan(w, p)
	if len(vs) != 1 || vs[0].Condition != 3 {
		t.Errorf("violations = %v, want one condition-3", vs)
	}
}

func TestValidatePlanCatchesIllegalDrop(t *testing.T) {
	w := paperFig1(t)
	g := w.Graph
	mid := g.At(grid.Coord{X: 2, Y: 2})
	next := g.At(grid.Coord{X: 2, Y: 1})
	p := handPlan(
		AgentState{mid, NoProduct},
		AgentState{mid, 0},
		AgentState{next, 0},
		AgentState{next, NoProduct}, // drop in the aisle
	)
	vs := ValidatePlan(w, p)
	if len(vs) != 1 || vs[0].Condition != 3 {
		t.Errorf("violations = %v, want one condition-3", vs)
	}
}

func TestValidatePlanCatchesProductMutation(t *testing.T) {
	w := paperFig1(t)
	mid := w.Graph.At(grid.Coord{X: 2, Y: 2})
	p := handPlan(
		AgentState{mid, NoProduct},
		AgentState{mid, 0},
		AgentState{mid, 1}, // mutate carried product
	)
	vs := ValidatePlan(w, p)
	if len(vs) != 1 || vs[0].Condition != 3 {
		t.Errorf("violations = %v, want one condition-3 mutation", vs)
	}
}

func TestValidatePlanCatchesStockOverdraw(t *testing.T) {
	g, _, _, err := grid.Parse(".T")
	if err != nil {
		t.Fatal(err)
	}
	shelf := g.At(grid.Coord{X: 0, Y: 0})
	station := g.At(grid.Coord{X: 1, Y: 0})
	w, err := New(g, []grid.VertexID{shelf}, []grid.VertexID{station}, 1, [][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	// Two pickups of a product with stock 1.
	p := handPlan(
		AgentState{shelf, NoProduct},
		AgentState{shelf, 0},
		AgentState{station, 0},
		AgentState{station, NoProduct},
		AgentState{shelf, NoProduct},
		AgentState{shelf, 0},
		AgentState{station, 0},
		AgentState{station, NoProduct},
	)
	vs := ValidatePlan(w, p)
	if len(vs) != 1 || vs[0].Condition != 3 {
		t.Errorf("violations = %v, want one stock overdraw", vs)
	}
}

func TestPlanAccessors(t *testing.T) {
	var empty Plan
	if empty.NumAgents() != 0 || empty.Horizon() != 0 {
		t.Error("empty plan accessors wrong")
	}
	p := handPlan(AgentState{0, NoProduct}, AgentState{0, NoProduct})
	if p.NumAgents() != 1 || p.Horizon() != 2 {
		t.Errorf("accessors = (%d,%d), want (1,2)", p.NumAgents(), p.Horizon())
	}
}

func TestValidatePlanRaggedStates(t *testing.T) {
	w := paperFig1(t)
	v0 := w.Graph.At(grid.Coord{X: 0, Y: 0})
	p, err := PlanFromRows([][]AgentState{
		{{v0, NoProduct}, {v0, NoProduct}},
		{{v0, NoProduct}},
	})
	if err == nil {
		t.Fatalf("ragged plan accepted: %d agents over %d steps", p.NumAgents(), p.Horizon())
	}
	var v PlanViolation
	if !errors.As(err, &v) || v.Agent != 1 || v.Condition != 1 {
		t.Errorf("error = %v, want agent 1's row length", err)
	}
}

// TestProductOutsideRho: a carried product that is neither ρ0 nor a product
// of ρ breaches condition (3) where it starts the plan and where it is
// dropped, and is never counted as a delivery. Delivered used to index its
// per-product counts with it and panic.
func TestProductOutsideRho(t *testing.T) {
	w := paperFig1(t)
	station := w.Graph.At(grid.Coord{X: 1, Y: 0})
	p := handPlan(
		AgentState{station, 999},
		AgentState{station, NoProduct},
	)
	vs := ValidatePlan(w, p)
	if len(vs) != 2 || vs[0].Condition != 3 || vs[1].Condition != 3 {
		t.Fatalf("violations = %v, want a start and a drop outside ρ", vs)
	}
	if got := Delivered(w, p); got[0] != 0 || got[1] != 0 {
		t.Errorf("Delivered = %v, want none", got)
	}
	if ok, _ := Services(w, p, Workload{Units: []int{0, 0}}); ok {
		t.Error("plan dropping a product outside ρ reported as servicing")
	}
}

// TestValidatePlanEmptyRows: agents without a single state make an empty
// plan, not a malformed one.
func TestValidatePlanEmptyRows(t *testing.T) {
	w := paperFig1(t)
	p := rowsPlan([]AgentState{}, []AgentState{})
	if vs := ValidatePlan(w, p); len(vs) != 0 {
		t.Errorf("violations = %v, want none", vs)
	}
	if got := Delivered(w, p); got[0] != 0 || got[1] != 0 {
		t.Errorf("Delivered = %v, want none", got)
	}
}
