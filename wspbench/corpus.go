package main

import (
	"fmt"

	"repro/wsp"
)

// corpusSeed fixes the scenario corpus. Its seeded demand shapes decide
// which instances solve, and across corpus seeds 1-5 that moved solves/s by
// 15% and the plan figures by 27% (interquartile range over median), more
// than the benchmark's bounds; so the corpus stays fixed and the workload
// seed orders the solves instead.
const corpusSeed = 1

// corpusOps builds the scenario corpus as ContractILP solves, each instance
// once under the default float engine and once exact.
func corpusOps() ([]*op, error) {
	insts, err := wsp.GenerateCorpus(corpusSeed)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	var ops []*op
	for _, in := range insts {
		inst := wsp.Instance{System: in.Sys, Workload: in.WL, Horizon: in.T}
		for _, exact := range []bool{false, true} {
			name := in.Name + "/float"
			if exact {
				name = in.Name + "/exact"
			}
			ops = append(ops, newOp(name, inst, wsp.Config{Strategy: wsp.ContractILP, Exact: exact}))
		}
	}
	return ops, nil
}

// runCorpus solves the corpus closed loop on one goroutine, in an order
// drawn from the workload seed. Most corpus instances end in an infeasible
// or budget verdict; those are answers, and only a wrong plan or a solver
// error fails an operation.
func runCorpus(cfg runConfig) (*report, error) {
	rep := newReport()
	ops, setupS, err := timedSetup(rep, func() ([]*op, error) {
		ops, err := corpusOps()
		if err != nil {
			return nil, err
		}
		// Warm up on the first instance, a one-stripe layout solved in
		// milliseconds; a whole warm-up pass would cost as much as a
		// measured one.
		return ops, warm(ops[:2])
	}, nil)
	if err != nil {
		return nil, err
	}
	// A run solves each op only three or four times: too few for a tail
	// of its own, so the tail is pooled.
	return runClosed(rep, cfg, ops, false, false, setupS), nil
}
