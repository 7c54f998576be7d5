package lp

// Tests for the frontier fence (search.go): a walk stops every
// bbFrontierNodes nodes and the search continues through cold-rooted
// subtree tasks. Cold roots make a task's pivot sequence independent of the
// arena that runs it, so the dense oracle and the revised engine must stay
// bit-identical however finely the fence cuts the tree, budgets included;
// and moving the fence changes work accounting but never an unbudgeted
// verdict or optimum. The tests keep the TestParallelSearch names from when
// the fenced tasks ran on parallel workers: the tasks are the same, they now
// run in order.

import (
	"fmt"
	"math/rand"
	"testing"
)

// lowFence lowers the frontier fence so the small fuzz instances decompose
// into many subtree tasks, restoring the production value when the test
// ends.
func lowFence(t *testing.T, n int) {
	t.Helper()
	old := bbFrontierNodes
	bbFrontierNodes = n
	t.Cleanup(func() { bbFrontierNodes = old })
}

// ilpSolver is SolveILP or an oracle counterpart of it (denseSolveILP).
type ilpSolver func(*Problem, ILPOptions) (*Solution, error)

// searchConfig is one entry of the engine matrix: the options and the
// entry point that solves with them.
type searchConfig struct {
	tag   string
	opts  ILPOptions
	solve ilpSolver
}

// searchConfigs is the engine matrix the search tests run through, the
// dense oracle included (it runs the same bbSolveHooked search).
func searchConfigs() []searchConfig {
	return []searchConfig{
		{"exact/dense", ILPOptions{Engine: EngineExact}, denseSolveILP},
		{"exact/revised", ILPOptions{Engine: EngineExact}, SolveILP},
		{"float", ILPOptions{Engine: EngineFloat}, SolveILP},
		{"hybrid", ILPOptions{Engine: EngineExact, Simplex: SimplexHybrid}, SolveILP},
		{"cuts", ILPOptions{Engine: EngineExact, RootCuts: true}, SolveILP},
	}
}

// sameOutcome requires bit-identical answers: equal error text, or equal
// Solution fields.
func sameOutcome(t *testing.T, tag string, want, got *Solution, werr, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: err=%v, want err=%v", tag, gerr, werr)
	}
	if werr == nil {
		if err := sameSolution(want, got); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
}

// sameVerdict requires the same error text, status and objective: what an
// unbudgeted search must keep when only the fence moves.
func sameVerdict(t *testing.T, tag string, want, got *Solution, werr, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: low-fence err=%v, production err=%v", tag, gerr, werr)
	}
	if werr != nil {
		return
	}
	if want.Status != got.Status || (want.Objective == nil) != (got.Objective == nil) ||
		(want.Objective != nil && want.Objective.Cmp(got.Objective) != 0) {
		t.Fatalf("%s: low fence %v obj=%v, production fence %v obj=%v",
			tag, got.Status, got.Objective, want.Status, want.Objective)
	}
}

// acrossFences solves p with every engine at the production fence and at
// the lowered one and requires the same verdict, handing each low-fence
// answer to check (nil to skip). The fence must be lowered on entry.
func acrossFences(t *testing.T, tag string, p *Problem, prodFence int, check func(string, *Solution)) {
	t.Helper()
	low := bbFrontierNodes
	for _, cfg := range searchConfigs() {
		bbFrontierNodes = prodFence
		want, werr := cfg.solve(p, cfg.opts)
		bbFrontierNodes = low
		got, gerr := cfg.solve(p, cfg.opts)
		sameVerdict(t, tag+" "+cfg.tag, want, got, werr, gerr)
		if gerr == nil && check != nil {
			check(tag+" "+cfg.tag, got)
		}
	}
}

// The fence fuzz: random mixed-shape ILPs (every fourth a pure feasibility
// problem) under a fence of 3 nodes. Revised and dense-oracle searches walk
// the same task sequence pivot for pivot, so even budget verdicts — which
// depend on exact node and work totals — agree bit for bit; unbudgeted,
// the fence only splits the tree, so every engine keeps the production
// fence's status and objective.
func TestParallelSearchParityFuzz(t *testing.T) {
	prodFence := bbFrontierNodes
	lowFence(t, 3)
	for seed := 0; seed < parityRounds(t, 40); seed++ {
		rng := rand.New(rand.NewSource(int64(9100 + seed)))
		p := randomBoundedProblem(rng, true)
		if seed%4 == 3 {
			p.Objective = nil
		}
		maxNodes, maxWork := 5+rng.Intn(60), int64(200+rng.Intn(4000))
		tag := fmt.Sprintf("seed=%d", seed)
		for _, b := range []struct {
			tag      string
			maxNodes int
			maxWork  int64
		}{{"none", 0, 0}, {"nodes", maxNodes, 0}, {"work", 0, maxWork}, {"both", maxNodes, maxWork}} {
			opts := ILPOptions{Engine: EngineExact, MaxNodes: b.maxNodes, MaxWork: b.maxWork}
			want, werr := denseSolveILP(p, opts)
			got, gerr := SolveILP(p, opts)
			sameOutcome(t, tag+" dense/revised budget="+b.tag, want, got, werr, gerr)
		}
		acrossFences(t, tag, p, prodFence, nil)
	}
}

// Pure feasibility problems stop at the first integral solution the task
// order reaches. Under a fence of 2 nodes the revised engine must return
// exactly the dense oracle's first win, and every engine must return a
// solution that satisfies the problem whenever the production fence finds
// one.
func TestParallelSearchFeasibilityFirstWin(t *testing.T) {
	prodFence := bbFrontierNodes
	lowFence(t, 2)
	for seed := 0; seed < parityRounds(t, 30); seed++ {
		rng := rand.New(rand.NewSource(int64(5200 + seed)))
		p := randomBoundedProblem(rng, true)
		p.Objective = nil
		tag := fmt.Sprintf("seed=%d", seed)
		opts := ILPOptions{Engine: EngineExact}
		want, werr := denseSolveILP(p, opts)
		got, gerr := SolveILP(p, opts)
		sameOutcome(t, tag+" dense/revised", want, got, werr, gerr)
		acrossFences(t, tag, p, prodFence, func(tag string, sol *Solution) {
			if sol.Status != StatusOptimal {
				return
			}
			if err := p.Check(sol.Values); err != nil {
				t.Fatalf("%s: first win does not satisfy the problem: %v", tag, err)
			}
		})
	}
}

// Budget verdicts on the exponential parity tree. Refuting parityILP(13)
// takes more than 500 nodes and more than 20,000 work units, so at either
// fence a budgeted search must stop undecided and only the unbudgeted one
// may prove infeasibility; every fenced task restarts cold and is charged
// for it, so the finer fence must cost more work for the same verdicts;
// and under the finer fence the revised engine must reach the dense
// oracle's limit point exactly, mixed node and work budgets included.
func TestParallelSearchBudgetParity(t *testing.T) {
	prodFence := bbFrontierNodes
	lowFence(t, 3)
	var work [2]int64
	for i, fence := range []int{3, prodFence} {
		bbFrontierNodes = fence
		w0 := WorkMeter()
		for _, c := range []struct {
			opts ILPOptions
			want Status
		}{
			{ILPOptions{Engine: EngineExact}, StatusInfeasible},
			{ILPOptions{Engine: EngineExact, MaxNodes: 500}, StatusLimit},
			{ILPOptions{Engine: EngineExact, MaxWork: 20000}, StatusLimit},
			{ILPOptions{Engine: EngineFloat, MaxNodes: 500}, StatusLimit},
		} {
			sol, err := SolveILP(parityILP(13), c.opts)
			if err != nil || sol.Status != c.want {
				t.Fatalf("parity13 fence=%d %+v: (%v, %v), want %v", fence, c.opts, sol, err, c.want)
			}
		}
		work[i] = WorkMeter() - w0
	}
	if work[0] <= work[1] {
		t.Fatalf("parity13 work at fence 3 = %d, not above %d at the production fence", work[0], work[1])
	}
	bbFrontierNodes = 3
	p := parityILP(13)
	for _, b := range []struct {
		tag  string
		opts ILPOptions
	}{
		{"none", ILPOptions{Engine: EngineExact}},
		{"nodes", ILPOptions{Engine: EngineExact, MaxNodes: 500}},
		{"work", ILPOptions{Engine: EngineExact, MaxWork: 20000}},
		{"both", ILPOptions{Engine: EngineExact, MaxNodes: 300, MaxWork: 15000}},
	} {
		want, werr := denseSolveILP(p, b.opts)
		got, gerr := SolveILP(p, b.opts)
		sameOutcome(t, "parity13 dense/revised budget="+b.tag, want, got, werr, gerr)
	}
	acrossFences(t, "parity13", p, prodFence, nil)
}
