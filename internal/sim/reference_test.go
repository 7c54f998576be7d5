package sim

import (
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/warehouse"
)

// referenceValidatePlan is the map-accounted validator the fused sweep
// replaced, kept as its parity oracle. Its one change is deterministic
// reporting of stock over-draws: the map it tallies picks in iterates in
// random order, so the over-draw violations are sorted by shelf column and
// product, the order the sweep reports them in.
func referenceValidatePlan(w *warehouse.Warehouse, p *warehouse.Plan) []warehouse.PlanViolation {
	var out []warehouse.PlanViolation
	T := p.Horizon()
	c := p.NumAgents()
	type pick struct {
		v grid.VertexID
		k warehouse.ProductID
	}
	picked := make(map[pick]int)
	nv := w.Graph.NumVertices()
	occAgent := make([]int32, nv)
	occStamp := make([]int32, nv)
	for t := 0; t < T; t++ {
		stamp := int32(t) + 1
		for i := 0; i < c; i++ {
			v := p.At(i, t).Vertex
			if v < 0 || int(v) >= nv {
				out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 1,
					Detail: fmt.Sprintf("vertex %d out of range", v)})
				continue
			}
			if occStamp[v] == stamp {
				out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: int(occAgent[v]), Condition: 2,
					Detail: fmt.Sprintf("agents %d and %d both at vertex %d", occAgent[v], i, v)})
			}
			occAgent[v] = int32(i)
			occStamp[v] = stamp
		}
		if t+1 >= T {
			break
		}
		for i := 0; i < c; i++ {
			cur, next := p.At(i, t), p.At(i, t+1)
			if cur.Vertex != next.Vertex && !w.Graph.Adjacent(cur.Vertex, next.Vertex) {
				out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 1,
					Detail: fmt.Sprintf("teleport %d -> %d", cur.Vertex, next.Vertex)})
			}
			if next.Vertex >= 0 && int(next.Vertex) < nv && occStamp[next.Vertex] == stamp {
				if j := int(occAgent[next.Vertex]); j != i && p.At(j, t+1).Vertex == cur.Vertex {
					if i < j {
						out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: j, Condition: 2,
							Detail: fmt.Sprintf("agents %d and %d swap across edge %d-%d", i, j, cur.Vertex, next.Vertex)})
					}
				}
			}
			switch {
			case cur.Carried == next.Carried:
			case cur.Carried == warehouse.NoProduct:
				if w.UnitsAt(cur.Vertex, next.Carried) <= 0 {
					out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("picked product %d at vertex %d which stocks none", next.Carried, cur.Vertex)})
				} else {
					picked[pick{cur.Vertex, next.Carried}]++
				}
			case next.Carried == warehouse.NoProduct:
				if !w.IsStation(cur.Vertex) {
					out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("dropped product %d at non-station vertex %d", cur.Carried, cur.Vertex)})
				}
			default:
				out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
					Detail: fmt.Sprintf("carried product mutated %d -> %d", cur.Carried, next.Carried)})
			}
		}
	}
	keys := make([]pick, 0, len(picked))
	for pk := range picked {
		keys = append(keys, pk)
	}
	sort.Slice(keys, func(a, b int) bool {
		if ca, cb := w.ShelfColumn(keys[a].v), w.ShelfColumn(keys[b].v); ca != cb {
			return ca < cb
		}
		return keys[a].k < keys[b].k
	})
	for _, pk := range keys {
		if n, have := picked[pk], w.UnitsAt(pk.v, pk.k); n > have {
			out = append(out, warehouse.PlanViolation{Timestep: T - 1, Agent: -1, OtherIdx: -1, Condition: 3,
				Detail: fmt.Sprintf("picked %d units of product %d at vertex %d, stock is %d", n, pk.k, pk.v, have)})
		}
	}
	return out
}

// referenceRun is the two-pass Run the fused sweep replaced: validation,
// then a second walk over the plan for the tallies, rescanning the
// workload for ServicedAt after every step. It is defined only on plans
// with carried products in ρ; outside that domain it panics, which is what
// the sweep fixed.
func referenceRun(w *warehouse.Warehouse, plan *warehouse.Plan, wl warehouse.Workload) Result {
	res := Result{
		Delivered:  make([]int, w.NumProducts),
		ServicedAt: -1,
	}
	res.Violations = referenceValidatePlan(w, plan)
	T := plan.Horizon()
	c := plan.NumAgents()
	serviced := func() bool {
		for k, want := range wl.Units {
			if res.Delivered[k] < want {
				return false
			}
		}
		return true
	}
	if serviced() {
		res.ServicedAt = 0
	}
	for t := 0; t+1 < T; t++ {
		for i := 0; i < c; i++ {
			cur, next := plan.At(i, t), plan.At(i, t+1)
			if cur.Vertex == next.Vertex {
				res.Waits++
			} else {
				res.Moves++
			}
			if cur.Carried != warehouse.NoProduct {
				res.Carrying++
			}
			if cur.Carried != warehouse.NoProduct && next.Carried == warehouse.NoProduct && w.IsStation(cur.Vertex) {
				res.Delivered[cur.Carried]++
				res.DeliveryTimes = append(res.DeliveryTimes, t+1)
			}
		}
		if res.ServicedAt < 0 && serviced() {
			res.ServicedAt = t + 1
		}
	}
	return res
}
