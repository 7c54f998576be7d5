package main

import (
	"fmt"

	"repro/wsp"
)

// tableIHorizon is the paper's plan-length limit T.
const tableIHorizon = 3600

// tableIRows are the nine Table I instances: three maps at three demand
// levels each.
var tableIRows = []struct {
	name    string
	mapName string // the builtin map name wspd resolves
	units   []int
}{
	{"SortingCenter", "sorting", []int{160, 320, 480}},
	{"Fulfillment1", "fulfillment1", []int{550, 825, 1100}},
	{"Fulfillment2", "fulfillment2", []int{1200, 1320, 1440}},
}

// tableIOps builds the nine Table I instances as route-packing solves.
func tableIOps() ([]*op, error) {
	var ops []*op
	for _, row := range tableIRows {
		m, err := wsp.BuiltinMap(row.mapName)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", row.name, err)
		}
		for _, u := range row.units {
			wl, err := wsp.UniformWorkload(m.W, u)
			if err != nil {
				return nil, fmt.Errorf("%s workload %d: %w", row.name, u, err)
			}
			inst := wsp.Instance{System: m.S, Workload: wl, Horizon: tableIHorizon}
			ops = append(ops, newOp(fmt.Sprintf("%s-%d", row.name, u), inst, wsp.Config{}))
		}
	}
	return ops, nil
}

// runTableI solves the Table I instances closed loop on one goroutine. The
// seed only orders the solves: the instances are the paper's.
func runTableI(cfg runConfig) (*report, error) {
	rep := newReport()
	ops, setupS, err := timedSetup(rep, func() ([]*op, error) {
		ops, err := tableIOps()
		if err != nil {
			return nil, err
		}
		return ops, warm(ops)
	}, nil)
	if err != nil {
		return nil, err
	}
	// The nine instances differ fourfold in solve time.
	return runClosed(rep, cfg, ops, true, true, setupS), nil
}

// runClosed measures a closed-loop workload: end-to-end metrics untraced,
// or per-layer metrics from alternating untraced and traced passes.
func runClosed(rep *report, cfg runConfig, ops []*op, mustSolve, perOpLatency bool, setupS float64) *report {
	loop := newClosedLoop(ops, cfg.seed, mustSolve)
	loop.perOpLatency = perOpLatency
	if !cfg.trace {
		loop.run(rep, cfg.seconds)
		loop.endToEnd(rep, setupS)
		return rep
	}
	t := newTracedLoop(loop)
	t.run(rep, cfg.seconds)
	t.perLayer(rep)
	noServer(rep)
	loop.digest(rep)
	return rep
}
