package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/agentplan"
	"repro/internal/calibrate"
	"repro/internal/cycles"
	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/wsp"
)

// span is one timed call into a layer. Spans of one operation share the
// operation's root span as parent.
type span struct {
	name   string
	parent int // index of the parent span, -1 for a root
	start  time.Duration
	end    time.Duration
	alloc  uint64 // bytes allocated during the span
}

// tracer keeps spans in memory; they are summarised when the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	allocs []uint64 // allocation counter at each open span's start
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.allocs = append(t.allocs, allocBytes())
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].alloc = allocBytes() - t.allocs[i]
	t.spans[i].end = time.Since(t.t0)
}

func (s span) dur() time.Duration { return s.end - s.start }

// replayScratch is the reusable state a replayed solve carries between
// operations, as core.Scratch does for wsp.Solver.Solve.
type replayScratch struct {
	cyc      cycles.Scratch
	contract flow.ContractModel
}

// layerCounts are the deterministic per-layer counts of one traced pass.
type layerCounts struct {
	agentSteps int64
	flowCalls  int
	cycles     int
	work       int64
	verdicts   map[string]int
}

func newLayerCounts() layerCounts { return layerCounts{verdicts: map[string]int{}} }

func (l layerCounts) equal(m layerCounts) bool {
	if l.agentSteps != m.agentSteps || l.flowCalls != m.flowCalls || l.cycles != m.cycles || l.work != m.work {
		return false
	}
	for _, v := range verdictKeys {
		if l.verdicts[v] != m.verdicts[v] {
			return false
		}
	}
	return true
}

var verdictKeys = []string{"solved", "infeasible", "budget", "horizon", "error"}

// replay solves one operation through the layer entry points, in the order
// and with the attempt loop of core.SolveScratch, recording a span around
// every call. Its outcome must equal the untraced wsp.Solver.Solve result.
func replay(tr *tracer, o *op, sc *replayScratch, lc *layerCounts) outcome {
	s, T := o.inst.System, o.inst.Horizon
	root := tr.begin("core.solve", -1)
	out := outcome{servicedAt: -1}
	maxAttempts := o.cfg.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 3
	}
	margin := 0
	var err error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		err = replayOnce(tr, root, o, margin, sc, lc, &out)
		if err == nil || errors.Is(err, lp.ErrCanceled) {
			break
		}
		if margin == 0 {
			margin = defaultMargin(s, T)
		}
		margin *= 2
		if qc := T / s.CycleTime(); margin > qc-1 {
			margin = qc - 1
		}
	}
	tr.end(root)
	out.verdict = calibrate.Classify(err)
	if err != nil {
		out.agents, out.servicedAt, out.cycles = 0, -1, 0
	}
	lc.verdicts[verdictName(out.verdict)]++
	lc.cycles += out.cycles
	lc.work += out.work
	return out
}

// defaultMargin is core's first retry margin: components plus two, at most
// a quarter of the horizon's cycle periods, at least one.
func defaultMargin(s *traffic.System, T int) int {
	tc := s.CycleTime()
	if tc == 0 {
		return 1
	}
	m := s.NumComponents() + 2
	if qc := T / tc; m > qc/4 {
		m = qc / 4
	}
	return max(m, 1)
}

func replayOnce(tr *tracer, root int, o *op, margin int, sc *replayScratch, lc *layerCounts, out *outcome) error {
	s, wl, T := o.inst.System, o.inst.Workload, o.inst.Horizon
	var cs *cycles.Set
	switch o.cfg.Strategy {
	case wsp.RoutePacking:
		sp := tr.begin("cycles.synthesize", root)
		c, err := cycles.Synthesize(s, wl, T, cycles.Options{WarmupMargin: margin, Scratch: &sc.cyc,
			PackParallel: o.cfg.SearchParallel})
		tr.end(sp)
		if err != nil {
			return err
		}
		cs = c
	case wsp.ContractILP:
		fopts := flow.Options{WarmupMargin: margin, ExactILP: o.cfg.Exact, Simplex: o.cfg.Simplex,
			AutoRows: o.cfg.SimplexAutoRows, RootCuts: o.cfg.RootCuts, MaxWork: o.cfg.WorkBudget,
			MaxNodes: o.cfg.NodeBudget, SearchParallel: o.cfg.SearchParallel}
		sp := tr.begin("flow.synthesize", root)
		w0 := lp.WorkMeter()
		set, err := sc.contract.Synthesize(context.Background(), s, wl, T, fopts)
		out.work += lp.WorkMeter() - w0
		tr.end(sp)
		lc.flowCalls++
		if err != nil {
			return err
		}
		sp = tr.begin("cycles.from_flowset", root)
		cs, err = cycles.FromFlowSet(set, wl)
		tr.end(sp)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("replay: strategy %v is not replayed", o.cfg.Strategy)
	}

	sp := tr.begin("agentplan.realize", root)
	plan, stats, err := agentplan.Realize(cs, wl, T)
	tr.end(sp)
	if err != nil {
		return err
	}
	lc.agentSteps += int64(plan.NumAgents()) * int64(T)

	sp = tr.begin("sim.run", root)
	r := sim.Run(s.W, plan, wl)
	tr.end(sp)
	if len(r.Violations) > 0 {
		return fmt.Errorf("replay: realized plan violates feasibility: %w", r.Violations[0])
	}
	if r.ServicedAt < 0 {
		return fmt.Errorf("replay: plan delivers %v of %v within %d steps", r.Delivered, wl.Units, T)
	}
	out.agents, out.servicedAt, out.cycles = stats.Agents, r.ServicedAt, len(cs.Cycles)
	return nil
}

// layerAccum sums the spans of traced operations per layer.
type layerAccum struct {
	ops      int
	total    map[string]time.Duration
	alloc    map[string]uint64
	root     time.Duration
	children time.Duration
}

func newLayerAccum() *layerAccum {
	return &layerAccum{total: map[string]time.Duration{}, alloc: map[string]uint64{}}
}

func (a *layerAccum) add(tr *tracer) {
	for _, s := range tr.spans {
		a.total[s.name] += s.dur()
		a.alloc[s.name] += s.alloc
		if s.parent < 0 {
			a.ops++
			a.root += s.dur()
		} else {
			a.children += s.dur()
		}
	}
}

func (a *layerAccum) perOpMS(name string) float64 {
	if a.ops == 0 {
		return 0
	}
	return ms(a.total[name]) / float64(a.ops)
}

func (a *layerAccum) perOpMB(name string) float64 {
	if a.ops == 0 {
		return 0
	}
	return float64(a.alloc[name]) / 1e6 / float64(a.ops)
}

// summary prints every layer's share of the traced time, largest first.
func (a *layerAccum) summary(rep *report) {
	var names []string
	for n := range a.total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return a.total[names[i]] > a.total[names[j]] })
	for _, n := range names {
		share := 0.0
		if a.root > 0 {
			share = 100 * float64(a.total[n]) / float64(a.root)
		}
		rep.note("span %-22s %10.3f ms/op %6.1f%% of core.solve", n, a.perOpMS(n), share)
	}
}

// tracedLoop alternates untraced passes through wsp.Solver.Solve with traced
// replays of the same operations, so the two are measured under the same
// conditions and the replay can be checked against the real answers.
type tracedLoop struct {
	*closedLoop
	sc       replayScratch
	acc      *layerAccum
	traced   latencies
	counts   []layerCounts // one per traced pass
	invalid  int           // replayed answers that differ from the untraced ones
	tracedOK int
}

func newTracedLoop(c *closedLoop) *tracedLoop {
	return &tracedLoop{closedLoop: c, acc: newLayerAccum()}
}

func (t *tracedLoop) tracedPass(rep *report) {
	lc := newLayerCounts()
	for _, i := range t.order {
		o := t.ops[i]
		tr := newTracer()
		out := replay(tr, o, &t.sc, &lc)
		t.acc.add(tr)
		t.traced = append(t.traced, ms(tr.spans[0].dur()))
		rep.attempted++
		if out.solved() {
			t.tracedOK++
		}
		if t.seen[i] && t.first[i] != out {
			t.invalid++
			rep.note("TRACE INVALID %s: replay %v, Solve %v", o.name, out, t.first[i])
		}
	}
	t.counts = append(t.counts, lc)
}

// run alternates untraced and traced passes until seconds have elapsed,
// making at least one of each.
func (t *tracedLoop) run(rep *report, seconds float64) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(t.counts) == 0 || time.Now().Before(deadline) {
		t.pass(rep, time.Time{})
		t.tracedPass(rep)
	}
}

// perLayer fills the per-layer metrics from the traced passes. Times are
// means per operation; counts are totals over one pass of the operations.
func (t *tracedLoop) perLayer(rep *report) {
	lc := t.counts[0]
	repeat := t.mismatch == 0
	for _, c := range t.counts[1:] {
		if !c.equal(lc) {
			repeat = false
			rep.note("REPEAT MISMATCH between traced passes: %+v then %+v", lc, c)
		}
	}
	var untracedWork int64
	for i, o := range t.first {
		if t.seen[i] {
			untracedWork += o.work
		}
	}
	if untracedWork != lc.work {
		repeat = false
		rep.note("REPEAT MISMATCH lp.work: Solve %d, replay %d", untracedWork, lc.work)
	}
	a := t.acc
	realizeMS := a.perOpMS("agentplan.realize")
	stepsPerOp := float64(lc.agentSteps) / float64(len(t.ops))
	nsPerStep := 0.0
	if stepsPerOp > 0 {
		nsPerStep = realizeMS * 1e6 / stepsPerOp
	}
	flowMS := a.perOpMS("flow.synthesize")
	workPerS := 0.0
	if flowMS > 0 {
		workPerS = float64(lc.work) / float64(len(t.ops)) / (flowMS / 1000)
	}
	rep.set("agentplan.realize_ms", "ms", realizeMS)
	rep.set("agentplan.agent_steps", "count", float64(lc.agentSteps))
	rep.set("agentplan.ns_per_agent_step", "ns", nsPerStep)
	rep.set("agentplan.alloc_mb", "MB", a.perOpMB("agentplan.realize"))
	rep.set("sim.run_ms", "ms", a.perOpMS("sim.run"))
	rep.set("sim.alloc_mb", "MB", a.perOpMB("sim.run"))
	rep.set("cycles.synthesize_ms", "ms", a.perOpMS("cycles.synthesize"))
	rep.set("cycles.from_flowset_ms", "ms", a.perOpMS("cycles.from_flowset"))
	rep.set("cycles.count", "count", float64(lc.cycles))
	rep.set("flow.synthesize_ms", "ms", flowMS)
	rep.set("flow.calls", "count", float64(lc.flowCalls))
	rep.set("lp.work", "count", float64(lc.work))
	rep.set("lp.work_per_s", "1/s", workPerS)
	rep.set("core.solve_ms", "ms", a.perOpMS("core.solve"))
	unattributed, coverage := 0.0, 0.0
	if a.ops > 0 && a.root > 0 {
		unattributed = ms(a.root-a.children) / float64(a.ops)
		coverage = float64(a.children) / float64(a.root)
	}
	rep.set("core.unattributed_ms", "ms", unattributed)
	for _, v := range verdictKeys {
		rep.set("core.verdict."+v, "count", float64(lc.verdicts[v]))
	}
	untracedP50, tracedP50 := t.lat.p50(), t.traced.p50()
	rep.set("trace.overhead_pct", "%", 100*(tracedP50-untracedP50)/untracedP50)
	rep.set("trace.coverage", "ratio", coverage)
	rep.set("trace.valid", "bool", boolMetric(t.invalid == 0))
	rep.set("repeat.exact", "bool", boolMetric(repeat))
	ops := t.done + len(t.traced)
	rep.set("fail_share", "ratio", float64(t.noPlan+len(t.traced)-t.tracedOK)/float64(ops))
	rep.note("%s", t.lat.describe("untraced solve latency"))
	rep.note("%s", t.traced.describe("traced solve latency"))
	rep.note("samples: untraced ops=%d traced ops=%d traced passes=%d", t.done, len(t.traced), len(t.counts))
	a.summary(rep)
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// noServer fills the server and generator metrics of a workload that does
// not exercise the server.
func noServer(rep *report) {
	for _, n := range []string{"server.rtt_ms", "server.elapsed_ms", "server.wait_ms"} {
		rep.set(n, "ms", 0)
	}
	rep.set("server.rejected", "count", 0)
	rep.set("server.degraded", "count", 0)
	rep.set("server.cache_hit_ratio", "ratio", 0)
	rep.set("gen.lag_p50_ms", "ms", 0)
	rep.set("gen.lag_max_ms", "ms", 0)
	rep.set("gen.late_phases", "count", 0)
}
