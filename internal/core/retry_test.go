package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/datasets"
	"repro/internal/lp"
)

// TestRetryRecoversAfterBudgetExhaustion pins what the retry loop does for
// the seed-1 corpus instance demand/diurnal-trough under the float
// ContractILP strategy. Attempts 1 and 2 (margins auto and 24) both run out
// of budget and spend exactly the same work: the automatic margin is also
// 24 here, so attempt 2 re-solves attempt 1's program. The node budget is
// what binds: with it lifted, attempt 1 solves within the default work
// budget. Attempt 3, at margin 47 (qc-1, one effective period), solves
// with 32 agents, serviced at t = 54. So a retry after budget exhaustion
// can succeed, and retrying only after a realization shortfall would lose
// this plan.
func TestRetryRecoversAfterBudgetExhaustion(t *testing.T) {
	insts, err := datasets.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, in := range insts {
		if in.Name != "demand/diurnal-trough" {
			continue
		}
		found = true
		attempt := func(opts Options, margin int) (*Result, int64, error) {
			w0 := lp.WorkMeter()
			res, err := solveOnce(context.Background(), in.Sys, in.WL, in.T, opts, margin, &Scratch{})
			return res, lp.WorkMeter() - w0, err
		}
		opts := Options{Strategy: ContractILP}
		m2 := nextMargin(in.Sys, in.T, 0)
		m3 := nextMargin(in.Sys, in.T, m2)
		if m2 != 24 || m3 != 47 {
			t.Fatalf("margins auto, %d, %d; want auto, 24, 47", m2, m3)
		}
		var spent []int64
		for _, margin := range []int{0, m2} {
			_, work, err := attempt(opts, margin)
			if !errors.Is(err, lp.ErrBudgetExhausted) {
				t.Fatalf("margin %d: error %v, want budget exhaustion", margin, err)
			}
			spent = append(spent, work)
		}
		if spent[0] <= 0 || spent[1] != spent[0] {
			t.Errorf("work spent by attempts 1 and 2: %v, want the same", spent)
		}
		if _, work, err := attempt(Options{Strategy: ContractILP, MaxNodes: 1 << 20}, 0); err != nil || work <= spent[0] {
			t.Errorf("attempt 1 without a node budget: %v after %d work, want a plan after more than %d", err, work, spent[0])
		}
		res, _, err := attempt(opts, m3)
		if err != nil {
			t.Fatalf("attempt 3 at margin %d: %v", m3, err)
		}
		if res.Stats.Agents != 32 || res.Sim.ServicedAt != 54 {
			t.Errorf("attempt 3: %d agents serviced at %d, want 32 at 54", res.Stats.Agents, res.Sim.ServicedAt)
		}
		full, err := Solve(context.Background(), in.Sys, in.WL, in.T, opts)
		if err != nil {
			t.Fatal(err)
		}
		if full.Attempts != 3 || full.Stats.Agents != 32 || full.Sim.ServicedAt != 54 {
			t.Errorf("Solve: attempt %d, %d agents serviced at %d; want attempt 3, 32 at 54",
				full.Attempts, full.Stats.Agents, full.Sim.ServicedAt)
		}
	}
	if !found {
		t.Fatal("corpus has no demand/diurnal-trough instance")
	}
}
