// Package agentplan realizes an agent cycle set as a discrete T-timestep
// plan, implementing the modular realization algorithm of §IV-C
// (Algorithm 1, COMPONENT_TIMESTEP).
//
// Every timestep, each component moves the agent nearest its exit across to
// the next component of that agent's cycle (at most once per cycle period)
// and shifts its remaining agents one cell toward the exit when the next
// cell was free at the start of the step. Because a follower may not enter a
// cell being vacated in the same step, gaps propagate one cell per timestep,
// which is why a cycle period of tc = 2m timesteps suffices to advance every
// agent one component (Property 4.1).
//
// Agents never overtake inside a component: they enter at Cells[0], shift
// toward the exit one cell at a time and leave from the exit. So each
// component keeps its agents in a queue ordered nearest-the-exit first, an
// agent joins the back when it enters and leaves the front when it crosses,
// and a timestep costs O(agents + components) rather than a scan of every
// cell.
//
// Pickups and drop-offs follow the product-handling semantics of §III
// condition (3): the carried-product transition at t+1 is decided by the
// agent's position at t, so picking and dropping cost no timesteps.
package agentplan

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/grid"
	"repro/internal/warehouse"
)

// Stats summarizes a realization.
type Stats struct {
	// Agents is the team size (one agent per cycle position).
	Agents int
	// Delivered counts units dropped at stations, per product.
	Delivered []int
	// Picks counts pickups.
	Picks int
	// ServicedAt is the first timestep by which the workload was fully
	// delivered, or -1 if the plan falls short.
	ServicedAt int
	// Moves counts cell transitions (a proxy for energy/congestion).
	Moves int
}

type agent struct {
	cycle    int             // index into cs.Cycles
	pos      int             // index into cycle.Components: the agent's current position
	comp     int             // cycle.Components[pos]
	cells    []grid.VertexID // cells of comp
	cell     int             // index into cells: vertex == cells[cell]
	vertex   grid.VertexID
	picks    []int32 // legs picking at pos, as flat leg indices in leg order
	carried  warehouse.ProductID
	dropPos  int // leg DropIdx the agent is heading to, -1 when empty
	advanceT int // timestep of the last component advancement
}

// Realize executes the cycle set for T timesteps and returns the plan
// (π, φ) together with realization statistics. The returned plan always
// spans exactly T timesteps; agents keep circulating after the workload is
// serviced.
func Realize(cs *cycles.Set, wl warehouse.Workload, T int) (*warehouse.Plan, Stats, error) {
	s := cs.S
	w := s.W
	tc := cs.Tc
	if T < 1 {
		return nil, Stats{}, fmt.Errorf("agentplan: horizon %d too short", T)
	}
	if tc < 2 {
		return nil, Stats{}, fmt.Errorf("agentplan: cycle time %d too short", tc)
	}

	// Property 4.1 preconditions.
	if errs := cs.Check(wl); len(errs) > 0 {
		return nil, Stats{}, fmt.Errorf("agentplan: invalid cycle set: %v", errs[0])
	}

	// Legs flattened across cycles: leg li of cycle ci is legBase[ci]+li.
	// pickLegs[pickStart[at]:pickStart[at+1]] lists, in leg order, the legs
	// picking at position pos of cycle ci, where at = posBase[ci]+pos, so an
	// agent at a position with no pick leg skips the leg loop entirely.
	nCycles := len(cs.Cycles)
	legBase := make([]int, nCycles+1)
	posBase := make([]int, nCycles+1)
	for ci, cyc := range cs.Cycles {
		legBase[ci+1] = legBase[ci] + len(cyc.Legs)
		posBase[ci+1] = posBase[ci] + len(cyc.Components)
	}
	legs := make([]cycles.Leg, 0, legBase[nCycles])
	pickStart := make([]int32, posBase[nCycles]+1)
	pickLegs := make([]int32, 0, legBase[nCycles])
	for ci, cyc := range cs.Cycles {
		legs = append(legs, cyc.Legs...)
		for pos := range cyc.Components {
			for li, leg := range cyc.Legs {
				if leg.PickIdx == pos {
					pickLegs = append(pickLegs, int32(legBase[ci]+li))
				}
			}
			pickStart[posBase[ci]+pos+1] = int32(len(pickLegs))
		}
	}
	picksAt := func(ci, pos int) []int32 {
		at := posBase[ci] + pos
		return pickLegs[pickStart[at]:pickStart[at+1]]
	}

	// Per-component agent queues, nearest the exit first: ring buffers of
	// agent indices laid end to end in qBuf, component c owning
	// qBuf[qOff[c] : qOff[c+1]] (one slot per cell; a component never holds
	// more agents than cells) with its front at qHead[c] and qLen[c] members.
	nc := s.NumComponents()
	qOff := make([]int32, nc+1)
	for c, comp := range s.Components {
		qOff[c+1] = qOff[c] + int32(len(comp.Cells))
	}
	// The components some cycle visits, in ID order: the only ones that
	// ever hold agents, and so the only ones a timestep walks.
	visited := make([]bool, nc)
	for _, cyc := range cs.Cycles {
		for _, comp := range cyc.Components {
			visited[comp] = true
		}
	}
	active := make([]int, 0, nc)
	for c, v := range visited {
		if v {
			active = append(active, c)
		}
	}
	qBuf := grid.GetInt32(int(qOff[nc]))
	qHead := grid.GetInt32(nc)
	qLen := grid.GetInt32(nc)
	defer grid.PutInt32(qBuf)
	defer grid.PutInt32(qHead)
	defer grid.PutInt32(qLen)
	push := func(c int, ai int32) {
		slot := qHead[c] + qLen[c]
		if size := qOff[c+1] - qOff[c]; slot >= size {
			slot -= size
		}
		qBuf[qOff[c]+slot] = ai
		qLen[c]++
	}

	// Instantiate agents: one per cycle position, placed on distinct cells
	// of the position's component, filling from the exit backward, so
	// joining each queue in construction order keeps it exit-first.
	agents := make([]agent, 0, posBase[nCycles])
	for ci, cyc := range cs.Cycles {
		for pos, comp := range cyc.Components {
			cells := s.Components[comp].Cells
			slot := len(cells) - 1 - int(qLen[comp])
			if slot < 0 {
				return nil, Stats{}, fmt.Errorf("agentplan: component %d overfull at initialization", comp)
			}
			push(int(comp), int32(len(agents)))
			agents = append(agents, agent{
				cycle:    ci,
				pos:      pos,
				comp:     int(comp),
				cells:    cells,
				cell:     slot,
				vertex:   cells[slot],
				picks:    picksAt(ci, pos),
				carried:  warehouse.NoProduct,
				dropPos:  -1,
				advanceT: -1,
			})
		}
	}

	// Mutable pick bookkeeping: the remaining quota of every flat leg, and
	// the dense stock, shelf column x product, indexed col*|ρ|+k.
	legQuota := make([]int, len(legs))
	for fl, leg := range legs {
		legQuota[fl] = leg.Quota
	}
	p := w.NumProducts
	stock := grid.GetInt32(len(w.ShelfAccess) * p)
	defer grid.PutInt32(stock)
	for k := 0; k < p; k++ {
		row := w.Stock[k]
		if row == nil {
			continue
		}
		for l, units := range row {
			stock[l*p+k] = int32(units)
		}
	}

	// The plan is timestep-major with 8-byte states, in blocks of whole
	// timesteps of about 64 KB: each step below writes one contiguous row,
	// and allocation grows with the number of blocks, not with the team
	// (DESIGN.md).
	plan := warehouse.NewPlan(len(agents), T)
	row := plan.Row(0)
	for i := range agents {
		row.Set(i, warehouse.AgentState{Vertex: agents[i].vertex, Carried: warehouse.NoProduct})
	}

	stats := Stats{
		Agents:     len(agents),
		Delivered:  make([]int, w.NumProducts),
		ServicedAt: -1,
	}
	// short counts the products still delivered below their demand.
	short := 0
	for _, want := range wl.Units {
		if want > 0 {
			short++
		}
	}
	if short == 0 {
		stats.ServicedAt = 0
	}

	// Per-component stamps, pooled across runs: a component's entry is
	// busy at step t iff entryBusy[c] == t+1 (an agent stood on its entry
	// cell at time t) and taken iff entered[c] == t+1 (an agent crossed in
	// during the step), so nothing is cleared between steps.
	entryBusy := grid.GetInt32(nc)
	entered := grid.GetInt32(nc)
	defer grid.PutInt32(entryBusy)
	defer grid.PutInt32(entered)

	for t := 0; t+1 < T; t++ {
		periodStart := (t / tc) * tc
		stamp := int32(t) + 1
		next := plan.Row(t + 1)

		// Entry occupancy at time t, and the pick/drop decisions made from
		// the time-t positions.
		for ai := range agents {
			a := &agents[ai]
			if a.cell == 0 {
				entryBusy[a.comp] = stamp
			}
			if a.carried == warehouse.NoProduct {
				if len(a.picks) == 0 {
					continue
				}
				col := w.ShelfColumn(a.vertex)
				if col < 0 {
					continue
				}
				for _, fl := range a.picks {
					leg := &legs[fl]
					if legQuota[fl] <= 0 || stock[col*p+int(leg.Product)] <= 0 {
						continue
					}
					stock[col*p+int(leg.Product)]--
					legQuota[fl]--
					a.carried = leg.Product
					a.dropPos = leg.DropIdx
					stats.Picks++
					break
				}
			} else if a.pos == a.dropPos && w.IsStation(a.vertex) {
				k := a.carried
				stats.Delivered[k]++
				if int(k) < len(wl.Units) && stats.Delivered[k] == wl.Units[k] {
					short--
				}
				a.carried = warehouse.NoProduct
				a.dropPos = -1
			}
		}

		// Movement, component by component, members nearest the exit
		// first, each agent's state at t+1 written as it settles. Members
		// never overtake, so the only agent that can stand on the cell
		// ahead of a member at time t is the member ahead of it in the
		// queue. An agent that crossed into a component earlier in this step
		// sits at the back of its queue and is not moved again.
		for _, c := range active {
			n := int(qLen[c])
			if entered[c] == stamp {
				n--
			}
			base, size, head := qOff[c], qOff[c+1]-qOff[c], qHead[c]
			ahead := -1 // time-t cell of the member ahead; none for the front
			for k := 0; k < n; k++ {
				slot := head + int32(k)
				if slot >= size {
					slot -= size
				}
				ai := qBuf[base+slot]
				a := &agents[ai]
				cell := a.cell
				if k == 0 && cell == len(a.cells)-1 && a.advanceT < periodStart {
					cyc := cs.Cycles[a.cycle]
					nextPos := a.pos + 1
					if nextPos == len(cyc.Components) {
						nextPos = 0
					}
					nextComp := int(cyc.Components[nextPos])
					if entered[nextComp] != stamp && entryBusy[nextComp] != stamp {
						entered[nextComp] = stamp
						if qHead[c]++; qHead[c] == size {
							qHead[c] = 0
						}
						qLen[c]--
						push(nextComp, ai)
						a.pos = nextPos
						a.comp = nextComp
						a.cells = s.Components[nextComp].Cells
						a.cell = 0
						a.vertex = a.cells[0]
						a.picks = picksAt(a.cycle, nextPos)
						a.advanceT = t + 1
						stats.Moves++
					}
				} else if cell+1 < len(a.cells) && cell+1 != ahead {
					// Internal shift toward the exit.
					a.cell++
					a.vertex = a.cells[a.cell]
					stats.Moves++
				}
				ahead = cell
				next.Set(int(ai), warehouse.AgentState{Vertex: a.vertex, Carried: a.carried})
			}
		}
		if stats.ServicedAt < 0 && short == 0 {
			stats.ServicedAt = t + 1
		}
	}
	return plan, stats, nil
}
