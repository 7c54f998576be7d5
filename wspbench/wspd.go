package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/server"
	"repro/wsp"
)

// The open-loop phases: offered request rates in requests per second. The
// service's knee on 2 cores is near 30 req/s, but there the hi phase's p95
// amplified machine-speed drift to a 0.31 interquartile spread over ten
// runs, beyond any bound the benchmark may set; at 20 req/s it was 0.06.
const (
	loRate     = 10.0
	hiRate     = 20.0
	numClients = 8
	// blocks is how many stretches each phase is split into. The phases
	// take turns, lo then hi, so each one samples the whole run and a
	// machine-speed swing of a few seconds falls on both, not on one.
	blocks = 5
)

// contractKinds are small corpus instances that ContractILP solves, sent
// inline in the wspio form. With the nine Table I kinds they make an odd
// number of equally weighted kinds, which puts each phase's median inside
// the cluster of Fulfillment1 solves rather than on the gap between two
// clusters, where it would jump between runs.
var contractKinds = []string{"stripes/S1-R2-V2-L6-st1", "demand/spike-0"}

// reqKind is one request of the mix: its body, the same solve as a direct
// operation, and the direct solve's answer that a response must match.
type reqKind struct {
	op   *op
	body []byte
	want outcome
}

// wspdKinds builds the request mix: the nine Table I route solves by
// builtin map name, and the inline contract solves.
func wspdKinds() ([]*reqKind, error) {
	ops, err := tableIOps()
	if err != nil {
		return nil, err
	}
	var kinds []*reqKind
	k := 0
	for _, row := range tableIRows {
		for _, u := range row.units {
			body, err := json.Marshal(server.SolveRequest{InstanceSpec: server.InstanceSpec{
				Map: row.mapName, Units: u, Horizon: tableIHorizon}})
			if err != nil {
				return nil, err
			}
			kinds = append(kinds, &reqKind{op: ops[k], body: body})
			k++
		}
	}
	insts, err := wsp.GenerateCorpus(corpusSeed, "stripes", "demand")
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	for _, in := range insts {
		if !slices.Contains(contractKinds, in.Name) {
			continue
		}
		file, err := wsp.EncodeInstance(in.Sys, &in.WL, in.T, in.Name)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", in.Name, err)
		}
		body, err := json.Marshal(server.SolveRequest{
			InstanceSpec:   server.InstanceSpec{Instance: file},
			SolveOverrides: server.SolveOverrides{Strategy: "contract"},
		})
		if err != nil {
			return nil, err
		}
		inst := wsp.Instance{System: in.Sys, Workload: in.WL, Horizon: in.T}
		kinds = append(kinds, &reqKind{op: newOp(in.Name, inst, wsp.Config{Strategy: wsp.ContractILP}), body: body})
	}
	if len(kinds) != len(ops)+len(contractKinds) {
		return nil, fmt.Errorf("request mix has %d kinds, want %d", len(kinds), len(ops)+len(contractKinds))
	}
	return kinds, nil
}

// served is a wspd instance on a loopback listener.
type served struct {
	srv    *server.Server
	url    string
	done   chan error // receives Serve's return
	client *http.Client
}

func startServer(conns int) (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{
		srv:  server.New(server.Config{}),
		url:  "http://" + l.Addr().String() + "/v1/solve",
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

// stop drains the server and waits for Serve to return.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	if err := s.srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// reply is one request's outcome as the client saw it.
type reply struct {
	status  int
	resp    server.SolveResponse
	err     error
	lag     time.Duration // generator lateness: hand-off time minus due time
	latency time.Duration // completion minus due time
	rtt     time.Duration // completion minus send time
	done    time.Time
}

func (s *served) send(body []byte, client string) reply {
	var r reply
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", client)
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.rtt = r.done.Sub(start)
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
		return r
	}
	if r.status == http.StatusOK {
		r.err = json.Unmarshal(data, &r.resp)
	}
	return r
}

// phase is one fixed rate of the open loop, run as blocks stretches.
type phase struct {
	name    string
	rate    float64
	kinds   []int // request kind of each send
	clients []string
	replies []reply
	seconds float64 // summed block spans: first due time to last reply
}

// run sends the phase's requests from..to on schedule from one generator
// goroutine, over conns connections, and waits for every reply. Latency
// runs from each request's due time, so a stall also counts against the
// requests queued behind it.
func (p *phase) run(s *served, kinds []*reqKind, conns, from, to int) {
	type job struct {
		i   int
		due time.Time
		lag time.Duration
	}
	jobs := make(chan job, to-from) // one slot per send: the generator never waits for a connection
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := s.send(kinds[p.kinds[j.i]].body, p.clients[j.i])
				r.lag = j.lag
				if !r.done.IsZero() {
					r.latency = r.done.Sub(j.due)
				}
				p.replies[j.i] = r
			}
		}()
	}
	period := time.Duration(float64(time.Second) / p.rate)
	start := time.Now().Add(10 * time.Millisecond)
	for i := from; i < to; i++ {
		due := start.Add(time.Duration(i-from) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i: i, due: due, lag: time.Since(due)}
	}
	close(jobs)
	wg.Wait()
	last := start
	for _, r := range p.replies[from:to] {
		if r.done.After(last) {
			last = r.done
		}
	}
	p.seconds += last.Sub(start).Seconds()
}

// byKind splits a value of the phase's replies by request kind; ok limits
// it to the replies that returned a plan.
func (p *phase) byKind(nKinds int, ok bool, val func(reply) float64) []latencies {
	out := make([]latencies, nKinds)
	for i, r := range p.replies {
		if !ok || (r.status == http.StatusOK && r.resp.OK) {
			out[p.kinds[i]] = append(out[p.kinds[i]], val(r))
		}
	}
	return out
}

func dueLatency(r reply) float64 { return ms(r.latency) }

func serverElapsed(r reply) float64 { return r.resp.ElapsedMS }

// schedule draws the request mix for n sends: whole rounds of every kind,
// each round in a seeded order, rotating over the clients.
func schedule(rng *rand.Rand, nKinds, n int, clients []string) (kinds []int, who []string) {
	for len(kinds) < n {
		kinds = append(kinds, rng.Perm(nKinds)...)
	}
	kinds = kinds[:n]
	for i := 0; i < n; i++ {
		who = append(who, clients[i%len(clients)])
	}
	return kinds, who
}

// openLoop is one served run: the server, the request mix and its phases.
type openLoop struct {
	s      *served
	kinds  []*reqKind
	conns  int
	phases []*phase
	ok     []int // OK responses per kind
	degr   int
}

// checkReply validates a reply outside the timed path: a 200 with ok:true,
// agents, service by the horizon and, unless degraded, the direct solve's
// exact answer.
func (o *openLoop) checkReply(rep *report, k *reqKind, r reply) bool {
	switch {
	case r.err != nil:
		rep.fail("%s: %v", k.op.name, r.err)
	case r.status != http.StatusOK:
		rep.fail("%s: HTTP %d", k.op.name, r.status)
	case !r.resp.OK || r.resp.Agents <= 0:
		rep.fail("%s: response ok=%v agents=%d", k.op.name, r.resp.OK, r.resp.Agents)
	case r.resp.ServicedAt < 0 || r.resp.ServicedAt > k.op.inst.Horizon:
		rep.fail("%s: serviced_at %d outside horizon %d", k.op.name, r.resp.ServicedAt, k.op.inst.Horizon)
	case r.resp.Degraded:
		o.degr++
		return true
	case r.resp.Agents != k.want.agents || r.resp.ServicedAt != k.want.servicedAt:
		rep.fail("%s: served agents=%d serviced_at=%d, direct solve agents=%d serviced_at=%d",
			k.op.name, r.resp.Agents, r.resp.ServicedAt, k.want.agents, k.want.servicedAt)
	default:
		return true
	}
	return false
}

func runWSPD(cfg runConfig) (*report, error) {
	conns := runtime.NumCPU()
	rep := newReport()
	kinds, err := wspdKinds()
	if err != nil {
		return nil, err
	}
	// The direct solves give the answers every response must match.
	for _, k := range kinds {
		c := k.op.solve()
		if err := k.op.check(c, true); err != nil {
			return nil, fmt.Errorf("direct solve: %w", err)
		}
		k.want = c.out
	}
	s, setupS, err := timedSetup(rep, func() (*served, error) {
		s, err := startServer(conns)
		if err != nil {
			return nil, err
		}
		for _, k := range kinds {
			if r := s.send(k.body, "warm-up-"+k.op.name); r.err != nil || r.status != http.StatusOK {
				_ = s.stop() // the warm-up failure is the error to report
				return nil, fmt.Errorf("warm-up %s: status %d: %v", k.op.name, r.status, r.err)
			}
		}
		return s, nil
	}, func(s *served) {
		if err := s.stop(); err != nil {
			rep.note("set-up server stop: %v", err)
		}
	})
	if err != nil {
		return nil, err
	}
	o := &openLoop{s: s, kinds: kinds, conns: conns, ok: make([]int, len(kinds))}
	rng := rand.New(rand.NewSource(cfg.seed))
	clients := make([]string, numClients)
	for i, c := range rng.Perm(numClients) {
		clients[i] = fmt.Sprintf("client-%d", c)
	}
	// A traced run keeps a quarter of its time for replaying the mix
	// through the layers.
	openSeconds := cfg.seconds
	if cfg.trace {
		openSeconds = cfg.seconds * 3 / 4
	}
	half := openSeconds / 2
	a0 := allocBytes()
	for _, ph := range []struct {
		name string
		rate float64
	}{{"lo", loRate}, {"hi", hiRate}} {
		n := max(blocks*len(kinds), int(ph.rate*half+0.5))
		p := &phase{name: ph.name, rate: ph.rate, replies: make([]reply, n)}
		p.kinds, p.clients = schedule(rng, len(kinds), n, clients)
		o.phases = append(o.phases, p)
	}
	for b := 0; b < blocks; b++ {
		for _, p := range o.phases {
			n := len(p.kinds)
			p.run(s, kinds, conns, b*n/blocks, (b+1)*n/blocks)
		}
	}
	alloc := allocBytes() - a0
	for _, p := range o.phases {
		for i, r := range p.replies {
			rep.attempted++
			if o.checkReply(rep, kinds[p.kinds[i]], r) {
				o.ok[p.kinds[i]]++
			}
		}
	}
	if cfg.trace {
		o.perLayer(rep, cfg)
	} else {
		o.endToEnd(rep, setupS, alloc)
	}
	o.notes(rep)
	if err := s.stop(); err != nil {
		return nil, err
	}
	return rep, nil
}

// lags returns a phase's generator lag p50 and maximum in ms, and whether
// the generator ran late: a median lag over 1 ms or a send later than one
// period means the offered rate was not the nominal one.
func (p *phase) lags() (p50, maxLag float64, late bool) {
	var l latencies
	for _, r := range p.replies {
		l = append(l, ms(r.lag))
	}
	s := l.sorted()
	p50, maxLag = percentile(s, 50), s[len(s)-1]
	return p50, maxLag, p50 > 1 || maxLag > 1000/p.rate
}

func (o *openLoop) endToEnd(rep *report, setupS float64, alloc uint64) {
	var elapsed latencies
	elapsedByKind := make([]latencies, len(o.kinds))
	okTotal, secs, sent := 0, 0.0, 0
	for _, p := range o.phases {
		var lat latencies
		ok := 0
		for _, r := range p.replies {
			lat = append(lat, ms(r.latency))
			if r.status == http.StatusOK && r.resp.OK {
				ok++
				elapsed = append(elapsed, r.resp.ElapsedMS)
			}
		}
		for k, l := range p.byKind(len(o.kinds), true, serverElapsed) {
			elapsedByKind[k] = append(elapsedByKind[k], l...)
		}
		// The mix has a cluster of small solves and one of large ones, and
		// a pooled median falls between them, where a slower machine or a
		// queued small solve moves it towards one cluster or the other; a
		// kind's own median does not jump.
		p50 := kindP50(p.byKind(len(o.kinds), false, dueLatency))
		_, tail, _ := lat.tail()
		rep.set(p.name+".req_p50_ms", "ms", p50)
		rep.set(p.name+".req_tail_ms", "ms", tail)
		if p.name == "hi" {
			rep.set("hi.ok_per_s", "1/s", float64(ok)/p.seconds)
		}
		rep.note("%s; per-kind p50 %.3fms", lat.describe(fmt.Sprintf("%s phase (%g req/s) latency from due time", p.name, p.rate)), p50)
		okTotal += ok
		secs += p.seconds
		sent += len(p.replies)
	}
	var agents, makespan int
	for _, k := range o.kinds {
		agents += k.want.agents
		makespan += k.want.servicedAt
	}
	n := float64(len(o.kinds))
	_, tail, _ := elapsed.tail()
	rep.set("setup_s", "s", setupS)
	rep.set("solves_per_s", "1/s", float64(okTotal)/secs)
	rep.set("solve_p50_ms", "ms", kindP50(elapsedByKind))
	rep.set("solve_tail_ms", "ms", tail)
	rep.set("plan_agents", "count", float64(agents)/n)
	rep.set("plan_makespan", "steps", float64(makespan)/n)
	rep.set("alloc_mb_per_op", "MB", float64(alloc)/1e6/float64(sent))
	rep.set("rss_peak_mb", "MB", rss.peakMB())
	rep.note("%s; per-kind p50 %.3fms", elapsed.describe("server elapsed_ms"), kindP50(elapsedByKind))
}

// perLayer reports the server layer from the served requests, and the
// solver layers from traced replays of the request mix's solves.
func (o *openLoop) perLayer(rep *report, cfg runConfig) {
	var rtt, elapsed, wait latencies
	failed, sent := 0, 0
	for _, p := range o.phases {
		for _, r := range p.replies {
			sent++
			if r.status != http.StatusOK || !r.resp.OK {
				failed++
				continue
			}
			rtt = append(rtt, ms(r.rtt))
			elapsed = append(elapsed, r.resp.ElapsedMS)
			wait = append(wait, ms(r.rtt)-r.resp.ElapsedMS)
		}
	}
	ops := make([]*op, len(o.kinds))
	for i, k := range o.kinds {
		ops[i] = k.op
	}
	t := newTracedLoop(newClosedLoop(ops, cfg.seed, true))
	t.run(rep, cfg.seconds/4)
	t.perLayer(rep)
	// The served requests, not the replays, define this workload's
	// fail_share.
	m := o.s.srv.Metrics()
	hits, misses := m["cache_hits_total"], m["cache_misses_total"]
	rep.set("server.rtt_ms", "ms", rtt.p50())
	rep.set("server.elapsed_ms", "ms", elapsed.p50())
	rep.set("server.wait_ms", "ms", wait.p50())
	rep.set("server.rejected", "count", float64(m["rejected_load_total"]+m["rejected_budget_total"]+m["rejected_drain_total"]))
	rep.set("server.degraded", "count", float64(m["degraded_total"]))
	rep.set("server.cache_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	rep.set("fail_share", "ratio", float64(failed)/float64(sent))
	var lagP50, lagMax float64
	late := 0
	for _, p := range o.phases {
		p50, mx, isLate := p.lags()
		lagP50, lagMax = max(lagP50, p50), max(lagMax, mx)
		if isLate {
			late++
		}
	}
	rep.set("gen.lag_p50_ms", "ms", lagP50)
	rep.set("gen.lag_max_ms", "ms", lagMax)
	rep.set("gen.late_phases", "count", float64(late))
	rep.note("%s", rtt.describe("server rtt"))
}

// notes prints generator health, the server counters and the per-kind
// answer digest.
func (o *openLoop) notes(rep *report) {
	for _, p := range o.phases {
		p50, mx, late := p.lags()
		flag := "ok"
		if late {
			flag = "LATE: this phase's latencies are not valid at the nominal rate"
		}
		rep.note("generator %s: sends=%d lag p50=%.3fms max=%.3fms %s", p.name, len(p.replies), p50, mx, flag)
	}
	for _, p := range o.phases {
		for k, l := range p.byKind(len(o.kinds), false, dueLatency) {
			rep.note("%s", l.describe(fmt.Sprintf("%s %s", p.name, o.kinds[k].op.name)))
		}
	}
	rep.note("server counters: %v", o.s.srv.Metrics())
	rep.note("responses degraded: %d", o.degr)
	for i, k := range o.kinds {
		rep.note("answer %-40s %v ok=%d", k.op.name, k.want, o.ok[i])
	}
}
