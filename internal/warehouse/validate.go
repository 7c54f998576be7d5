package warehouse

import (
	"fmt"

	"repro/internal/grid"
)

// PlanViolation describes one breach of the feasibility conditions of §III.
type PlanViolation struct {
	Timestep  int // 0-based timestep at which the violation occurs
	Agent     int // primary agent involved
	OtherIdx  int // second agent for collision violations, else -1
	Condition int // 1 = movement, 2 = collision, 3 = product handling
	Detail    string
}

func (v PlanViolation) Error() string {
	return fmt.Sprintf("plan violation (condition %d) at t=%d agent=%d: %s", v.Condition, v.Timestep, v.Agent, v.Detail)
}

// ValidatePlan checks the three feasibility conditions of §III against the
// warehouse and returns every violation found (nil means feasible).
//
//	(1) an agent moves by 0 or 1 vertices per timestep;
//	(2) no two agents occupy the same vertex or swap along an edge;
//	(3) pickups happen only at shelf-access vertices stocking the product,
//	    drop-offs only at stations, and carried products never mutate.
//
// ValidatePlan also checks that shelf stock is never over-drawn: the number
// of units of product k picked up at shelf-access vertex v over the whole
// plan must not exceed Λ[k][v]. A carried product outside ρ (neither ρ0 nor
// 0..NumProducts-1) breaches condition (3) where it starts the plan or is
// dropped.
func ValidatePlan(w *Warehouse, p *Plan) []PlanViolation {
	return Sweep(w, p, Workload{}, nil)
}

// Tally is what a replay of a plan counts alongside validation.
type Tally struct {
	// Delivered counts units dropped at stations per product.
	Delivered []int
	// DeliveryTimes records the timestep of every delivery, in order.
	DeliveryTimes []int
	// Moves counts cell transitions; Waits counts timesteps agents spent
	// stationary.
	Moves, Waits int
	// Carrying counts agent-timesteps spent loaded.
	Carrying int
	// ServicedAt is the first timestep by which the workload was fully
	// delivered, or -1.
	ServicedAt int
}

// Sweep replays plan p once, timestep by timestep, and returns the
// violations ValidatePlan reports, in the same order. When tally is non-nil
// the same pass also fills it against workload wl (wl is otherwise
// unused). A carried product outside ρ is left out of the tally.
func Sweep(w *Warehouse, p *Plan, wl Workload, tally *Tally) []PlanViolation {
	var out []PlanViolation
	T := p.Horizon()
	c := p.NumAgents()
	np := w.NumProducts
	if tally != nil {
		*tally = Tally{Delivered: make([]int, np), ServicedAt: -1}
	}
	inRho := func(k ProductID) bool { return k >= 0 && int(k) < np }
	// short counts the products still delivered below their demand.
	short := 0
	if tally != nil {
		for _, want := range wl.Units {
			if want > 0 {
				short++
			}
		}
		if short == 0 {
			tally.ServicedAt = 0
		}
	}
	// Dense per-(shelf column, product) pickup totals for stock accounting,
	// indexed col*|ρ|+k.
	picked := grid.GetInt32(len(w.ShelfAccess) * np)
	defer grid.PutInt32(picked)

	// Stamped occupancy arena with a slot per timestep parity, so step t
	// can be placed while step t-1 is still being read: at
	// o = 4v + 2(t&1), occ[o] == t+1 iff an agent stands on v at t, and
	// occ[o+1] is the last such agent. No per-step clearing is needed.
	nv := w.Graph.NumVertices()
	occ := grid.GetInt32(4 * nv)
	defer grid.PutInt32(occ)
	moves, carrying := 0, 0
	// One pass per timestep t reads the rows of t-1 and t, places every
	// agent at t and checks its move from t-1. The placement violations of
	// t are held back in pending and follow the move violations of t-1, the
	// order of checking each step's positions before the moves out of it.
	var pending []PlanViolation
	var prev Row
	for t := 0; t < T; t++ {
		cur := p.Row(t)
		stamp, prevStamp := int32(t)+1, int32(t)
		slot, prevSlot := 2*(t&1), 2*((t+1)&1)
		for i := range cur {
			st := cur.At(i)
			// Conditions 1 and 2a at t: a vertex on the grid, held by one
			// agent.
			if v := st.Vertex; v < 0 || int(v) >= nv {
				pending = append(pending, PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 1,
					Detail: fmt.Sprintf("vertex %d out of range", v)})
			} else {
				o := 4*int(v) + slot
				if occ[o] == stamp {
					pending = append(pending, PlanViolation{Timestep: t, Agent: i, OtherIdx: int(occ[o+1]), Condition: 2,
						Detail: fmt.Sprintf("agents %d and %d both at vertex %d", occ[o+1], i, v)})
				}
				occ[o], occ[o+1] = stamp, int32(i)
			}
			if t == 0 {
				if k := st.Carried; k != NoProduct && !inRho(k) {
					pending = append(pending, PlanViolation{Agent: i, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("starts carrying product %d outside ρ", k)})
				}
				continue
			}
			from := prev.At(i)
			moved := from.Vertex != st.Vertex
			// Condition 1: unit moves.
			if moved && !w.Graph.Adjacent(from.Vertex, st.Vertex) {
				out = append(out, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 1,
					Detail: fmt.Sprintf("teleport %d -> %d", from.Vertex, st.Vertex)})
			}
			// Condition 2b: edge swaps.
			if v := st.Vertex; v >= 0 && int(v) < nv && occ[4*int(v)+prevSlot] == prevStamp {
				if j := int(occ[4*int(v)+prevSlot+1]); j != i && cur.At(j).Vertex == from.Vertex {
					if i < j { // report each swap once
						out = append(out, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: j, Condition: 2,
							Detail: fmt.Sprintf("agents %d and %d swap across edge %d-%d", i, j, from.Vertex, st.Vertex)})
					}
				}
			}
			// Condition 3: product handling.
			delivered := false
			if from.Carried != st.Carried {
				switch {
				case from.Carried == NoProduct:
					// pickup: must stand at a shelf-access vertex stocking it
					if w.UnitsAt(from.Vertex, st.Carried) <= 0 {
						out = append(out, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("picked product %d at vertex %d which stocks none", st.Carried, from.Vertex)})
					} else {
						picked[w.ShelfColumn(from.Vertex)*np+int(st.Carried)]++
					}
				case st.Carried == NoProduct:
					// drop-off: must stand at a station, holding a product of ρ
					station := w.IsStation(from.Vertex)
					if !station {
						out = append(out, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("dropped product %d at non-station vertex %d", from.Carried, from.Vertex)})
					}
					if !inRho(from.Carried) {
						out = append(out, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("dropped product %d outside ρ", from.Carried)})
					} else {
						delivered = station
					}
				default:
					out = append(out, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("carried product mutated %d -> %d", from.Carried, st.Carried)})
				}
			}
			if moved {
				moves++
			}
			if inRho(from.Carried) {
				carrying++
			}
			if delivered && tally != nil {
				k := from.Carried
				tally.Delivered[k]++
				tally.DeliveryTimes = append(tally.DeliveryTimes, t)
				if int(k) < len(wl.Units) && tally.Delivered[k] == wl.Units[k] {
					short--
				}
			}
		}
		out = append(out, pending...)
		pending = pending[:0]
		prev = cur
		if t > 0 && tally != nil && tally.ServicedAt < 0 && short == 0 {
			tally.ServicedAt = t
		}
	}
	if tally != nil && T > 0 {
		tally.Moves, tally.Waits, tally.Carrying = moves, c*(T-1)-moves, carrying
	}
	// Stock over-draw, in shelf-column then product order.
	for l, v := range w.ShelfAccess {
		for k := 0; k < np; k++ {
			if n := int(picked[l*np+k]); n > 0 {
				if have := w.UnitsAt(v, ProductID(k)); n > have {
					out = append(out, PlanViolation{Timestep: T - 1, Agent: -1, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("picked %d units of product %d at vertex %d, stock is %d", n, k, v, have)})
				}
			}
		}
	}
	return out
}

// Delivered counts, per product, the units a plan transfers to stations: a
// delivery is a transition carried=k -> carried=ρ0 at a station vertex, for
// a product k of ρ.
func Delivered(w *Warehouse, p *Plan) []int {
	var tally Tally
	Sweep(w, p, Workload{}, &tally)
	return tally.Delivered
}

// Services reports whether plan p services workload wl: it is feasible and
// delivers at least Units[k] of every product k.
func Services(w *Warehouse, p *Plan, wl Workload) (bool, []PlanViolation) {
	var tally Tally
	if v := Sweep(w, p, wl, &tally); len(v) > 0 {
		return false, v
	}
	for k, want := range wl.Units {
		got := 0
		if k < len(tally.Delivered) {
			got = tally.Delivered[k]
		}
		if got < want {
			return false, []PlanViolation{{Timestep: p.Horizon() - 1, Agent: -1, OtherIdx: -1, Condition: 3,
				Detail: fmt.Sprintf("delivered %d of product %d, want %d", got, k, want)}}
		}
	}
	return true, nil
}
