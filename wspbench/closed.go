package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/calibrate"
	"repro/internal/lp"
	"repro/internal/sim"
	"repro/wsp"
)

// op is one closed-loop operation: a named instance solved under one
// solver configuration.
type op struct {
	name   string
	inst   wsp.Instance
	cfg    wsp.Config
	solver *wsp.Solver
}

func newOp(name string, inst wsp.Instance, cfg wsp.Config) *op {
	return &op{name: name, inst: inst, cfg: cfg, solver: wsp.NewFromConfig(cfg)}
}

// outcome is an operation's answer plus the deterministic counts that must
// repeat exactly on every run of the same seed.
type outcome struct {
	verdict    calibrate.Verdict
	agents     int
	servicedAt int
	cycles     int
	work       int64 // lp.WorkMeter delta
}

func (o outcome) solved() bool { return o.verdict == calibrate.VerdictSolved }

// sameAnswer reports whether two outcomes give the same answer.
func (o outcome) sameAnswer(p outcome) bool {
	return o.verdict == p.verdict && o.agents == p.agents && o.servicedAt == p.servicedAt
}

func (o outcome) String() string {
	return fmt.Sprintf("verdict=%s agents=%d serviced_at=%d cycles=%d lp.work=%d",
		o.verdict, o.agents, o.servicedAt, o.cycles, o.work)
}

// verdictName folds the corpus verdicts onto the reported set
// solved/infeasible/budget/horizon/error.
func verdictName(v calibrate.Verdict) string {
	switch v {
	case calibrate.VerdictSolved, calibrate.VerdictInfeasible, calibrate.VerdictBudget, calibrate.VerdictHorizon:
		return string(v)
	}
	return "error"
}

// call is one timed wsp.Solver.Solve call.
type call struct {
	out   outcome
	res   *wsp.Result
	err   error
	dur   time.Duration
	alloc uint64 // bytes allocated during the call
}

// solve runs the operation through wsp.Solver.Solve. Only the call itself
// is timed; checking its answer is left to the caller.
func (o *op) solve() call {
	a0 := allocBytes()
	w0 := lp.WorkMeter()
	start := time.Now()
	res, err := o.solver.Solve(context.Background(), o.inst)
	c := call{res: res, err: err, dur: time.Since(start)}
	c.out = outcome{verdict: calibrate.Classify(err), work: lp.WorkMeter() - w0, servicedAt: -1}
	c.alloc = allocBytes() - a0
	if err == nil {
		c.out.agents = res.Stats.Agents
		c.out.servicedAt = res.Sim.ServicedAt
		c.out.cycles = len(res.CycleSet.Cycles)
	}
	return c
}

// check validates an operation's output outside the timed region: a
// returned plan is simulated again and must be collision-free and service
// the workload by the horizon; a refusal must be a verdict, not an error.
func (o *op) check(c call, mustSolve bool) error {
	out, res, err := c.out, c.res, c.err
	switch {
	case err != nil && mustSolve:
		return fmt.Errorf("%s: no plan: %v", o.name, err)
	case err != nil && verdictName(out.verdict) == "error":
		return fmt.Errorf("%s: solve error: %v", o.name, err)
	case err != nil:
		return nil
	}
	r := sim.Run(o.inst.System.W, res.Plan, o.inst.Workload)
	if len(r.Violations) > 0 {
		return fmt.Errorf("%s: plan has %d violations, first %v", o.name, len(r.Violations), r.Violations[0])
	}
	if r.ServicedAt < 0 || r.ServicedAt > o.inst.Horizon {
		return fmt.Errorf("%s: plan services the workload at %d, horizon %d", o.name, r.ServicedAt, o.inst.Horizon)
	}
	if r.ServicedAt != out.servicedAt || res.Plan.NumAgents() != out.agents {
		return fmt.Errorf("%s: re-validation disagrees with the result (serviced %d vs %d, agents %d vs %d)",
			o.name, r.ServicedAt, out.servicedAt, res.Plan.NumAgents(), out.agents)
	}
	return nil
}

// closedLoop solves a fixed list of operations back to back on one
// goroutine, pass after pass, in an order drawn once from the seed.
type closedLoop struct {
	ops       []*op
	order     []int
	mustSolve bool
	// perOpLatency reports the geometric means of each op's own median
	// and tail in place of the pooled ones. When the ops are many times
	// solved and differ in size, the pooled tail is a high percentile
	// (p99 at 30 s) that the ten slowest solves of the largest ops set.
	perOpLatency bool

	first     []outcome // each op's outcome in the first pass
	seen      []bool
	perOp     [][]float64 // each op's latencies, ms
	perAlloc  [][]float64 // each op's allocations, MB
	lat       latencies
	done      int
	noPlan    int // ops that returned no validated plan
	mismatch  int // deterministic counts that differed between passes
	failedOps map[int]bool
}

func newClosedLoop(ops []*op, seed int64, mustSolve bool) *closedLoop {
	return &closedLoop{
		ops:       ops,
		order:     rand.New(rand.NewSource(seed)).Perm(len(ops)),
		mustSolve: mustSolve,
		first:     make([]outcome, len(ops)),
		seen:      make([]bool, len(ops)),
		perOp:     make([][]float64, len(ops)),
		perAlloc:  make([][]float64, len(ops)),
		failedOps: map[int]bool{},
	}
}

// warm solves every operation once, untimed, so lazy set-up (built maps,
// compiled models, grown heaps) is paid before measurement.
func warm(ops []*op) error {
	for _, o := range ops {
		if c := o.solve(); verdictName(c.out.verdict) == "error" {
			return fmt.Errorf("warm-up %s: %w", o.name, c.err)
		}
	}
	return nil
}

// pass solves every operation once, checking each answer after its timer
// stops. A non-zero deadline ends the pass early.
func (c *closedLoop) pass(rep *report, deadline time.Time) {
	for _, i := range c.order {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		o := c.ops[i]
		r := o.solve()
		c.lat = append(c.lat, ms(r.dur))
		c.perOp[i] = append(c.perOp[i], ms(r.dur))
		c.perAlloc[i] = append(c.perAlloc[i], float64(r.alloc)/1e6)
		c.done++
		rep.attempted++
		if err := o.check(r, c.mustSolve); err != nil {
			rep.fail("%v", err)
			c.failedOps[i] = true
			c.noPlan++
			continue
		}
		if !r.out.solved() {
			c.noPlan++
		}
		c.record(rep, i, r.out)
	}
}

// record compares an outcome with the op's first one: a different answer is
// a failure, a different count is a repeat mismatch.
func (c *closedLoop) record(rep *report, i int, out outcome) {
	if !c.seen[i] {
		c.first[i], c.seen[i] = out, true
		return
	}
	f := c.first[i]
	if !f.sameAnswer(out) {
		rep.fail("%s: answer changed between passes: %v then %v", c.ops[i].name, f, out)
		c.failedOps[i] = true
	} else if f != out {
		c.mismatch++
		rep.note("REPEAT MISMATCH %s: %v then %v", c.ops[i].name, f, out)
	}
}

// run makes one whole pass, then solves on until seconds have elapsed.
func (c *closedLoop) run(rep *report, seconds float64) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	c.pass(rep, time.Time{})
	for time.Now().Before(deadline) {
		c.pass(rep, deadline)
	}
}

// passTotal sums each op's median sample: one pass's cost, which a single
// stalled call, or a pass cut short, does not move.
func passTotal(perOp [][]float64) float64 {
	var total float64
	for _, l := range perOp {
		total += median(l)
	}
	return total
}

// endToEnd fills the end-to-end metrics of a closed-loop workload. A closed
// loop has one load level and a request is due when the previous one
// completes, so the lo.* and hi.* request figures equal the solve figures.
func (c *closedLoop) endToEnd(rep *report, setupS float64) {
	pass := passTotal(c.perOp) / 1000
	var solved, agents, makespan int
	for i, o := range c.first {
		if c.seen[i] && o.solved() {
			solved++
			agents += o.agents
			makespan += o.servicedAt
		}
	}
	p50 := c.lat.p50()
	_, tail, _ := c.lat.tail()
	if c.perOpLatency {
		perOp := make([]latencies, len(c.perOp))
		for i, l := range c.perOp {
			perOp[i] = l
			rep.note("%s", perOp[i].describe(c.ops[i].name))
		}
		p50, tail = kindP50(perOp), kindTail(perOp)
	}
	rep.set("setup_s", "s", setupS)
	rep.set("solves_per_s", "1/s", float64(len(c.ops))/pass)
	rep.set("solve_p50_ms", "ms", p50)
	rep.set("solve_tail_ms", "ms", tail)
	rep.set("plan_agents", "count", float64(agents)/float64(max(solved, 1)))
	rep.set("plan_makespan", "steps", float64(makespan)/float64(max(solved, 1)))
	rep.set("alloc_mb_per_op", "MB", passTotal(c.perAlloc)/float64(len(c.ops)))
	rep.set("rss_peak_mb", "MB", rss.peakMB())
	rep.set("lo.req_p50_ms", "ms", p50)
	rep.set("lo.req_tail_ms", "ms", tail)
	rep.set("hi.req_p50_ms", "ms", p50)
	rep.set("hi.req_tail_ms", "ms", tail)
	rep.set("hi.ok_per_s", "1/s", float64(solved)/pass)
	rep.note("%s", c.lat.describe("solve latency, pooled"))
	rep.note("samples: ops=%d passes=%.2f latency per op=%v", c.done, float64(c.done)/float64(len(c.ops)), c.perOpLatency)
	c.digest(rep)
}

// digest prints each op's answer, so a change in answers shows in review.
func (c *closedLoop) digest(rep *report) {
	verdicts := map[string]int{}
	failed := 0
	for i, o := range c.first {
		if !c.seen[i] || c.failedOps[i] {
			failed++
			rep.note("answer %-40s FAILED", c.ops[i].name)
			continue
		}
		verdicts[verdictName(o.verdict)]++
		rep.note("answer %-40s %v", c.ops[i].name, o)
	}
	rep.note("verdicts: %v; ops without a validated plan: %d of %d", verdicts, len(c.ops)-verdicts["solved"], len(c.ops))
	if failed > 0 {
		rep.note("ops with a failed check: %d", failed)
	}
}
