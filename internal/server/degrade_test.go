package server

import (
	"reflect"
	"testing"

	"repro/wsp"
)

// The ladder sheds in a fixed order: float arithmetic at rung 1, route
// packing at rung 2, and only at rung 3 the budgets, because a shrunken
// budget can change the answer where the earlier steps only change how it
// is computed.
func TestDegradeLadderOrder(t *testing.T) {
	base := wsp.Config{Strategy: wsp.ContractILP, Exact: true, Simplex: wsp.SimplexHybrid, RootCuts: true}
	for r, want := range [][]string{
		nil,
		{"float-arith"},
		{"float-arith", "route-packing"},
		{"float-arith", "route-packing", "budget-shrink"},
	} {
		cfg, steps := degradeConfig(base, r)
		if !reflect.DeepEqual(steps, want) {
			t.Errorf("rung %d: steps %v, want %v", r, steps, want)
		}
		if r < 3 && (cfg.WorkBudget != 0 || cfg.NodeBudget != 0 || cfg.MaxAttempts != 0) {
			t.Errorf("rung %d touched budgets: %+v", r, cfg)
		}
	}
	cfg, _ := degradeConfig(base, 3)
	if cfg.Exact || cfg.Simplex != wsp.SimplexAuto || cfg.RootCuts || cfg.Strategy != wsp.RoutePacking ||
		cfg.WorkBudget != shrinkWork || cfg.NodeBudget != shrinkNodes || cfg.MaxAttempts != 1 {
		t.Errorf("rung 3 config: %+v", cfg)
	}

	// A config already at a rung's cheap setting gets no misleading label.
	if _, steps := degradeConfig(wsp.Config{Strategy: wsp.RoutePacking}, 2); len(steps) != 0 {
		t.Errorf("route-packing float config labeled %v at rung 2", steps)
	}
}
