package warehouse

import (
	"fmt"

	"repro/internal/grid"
)

// AgentState is (π, φ): an agent's vertex and carried product at one step.
type AgentState struct {
	Vertex  grid.VertexID
	Carried ProductID
}

// packed is an AgentState in 8 bytes: vertex and carried product as int32.
type packed struct{ v, k int32 }

// planBlockStates is the capacity of one storage block of a Plan, 64 KB of
// packed states.
const planBlockStates = 64 << 10 / 8

// Plan is a T-timestep plan (π, φ) for c agents: At(i, t) is agent i's
// state at timestep t (0-based; the paper's t ∈ [1, T] maps to t-1 here).
//
// States are stored timestep-major and packed into two int32, so Row(t),
// the state of every agent at t, is one contiguous run of 8·c bytes.
// Realization writes a plan a timestep at a time and validation reads it
// the same way. The rows live in blocks of whole timesteps of about 64 KB
// each rather than in one array: on the Table I mix a single [T·c] array
// measured a higher peak resident set (DESIGN.md).
//
// A plan is built by NewPlan and filled through Row(t).Set, or converted
// from per-agent rows by PlanFromRows. The zero Plan has no agents and no
// timesteps.
type Plan struct {
	agents, horizon int
	perBlock        int // timesteps per block
	blocks          [][]packed
}

// NewPlan returns a plan of agents agents over T timesteps, every state
// zero (vertex 0, carrying product 0) until set.
func NewPlan(agents, T int) *Plan {
	if agents < 0 || T < 0 {
		panic(fmt.Sprintf("warehouse: plan of %d agents over %d timesteps", agents, T))
	}
	p := &Plan{agents: agents, horizon: T, perBlock: max(1, planBlockStates/max(agents, 1))}
	p.blocks = make([][]packed, (T+p.perBlock-1)/p.perBlock)
	for b := range p.blocks {
		p.blocks[b] = make([]packed, min(p.perBlock, T-b*p.perBlock)*agents)
	}
	return p
}

// PlanFromRows builds a plan from per-agent rows: rows[i][t] is agent i's
// state at timestep t. Rows of different lengths are refused with a
// condition-1 PlanViolation naming the first agent whose row length differs
// from agent 0's. A vertex or product that does not fit in an int32 is
// refused too (condition 1 or 3), never wrapped: a wrapped vertex could
// pass validation as a legal cell.
func PlanFromRows(rows [][]AgentState) (*Plan, error) {
	T := 0
	if len(rows) > 0 {
		T = len(rows[0])
	}
	for i, row := range rows {
		if len(row) != T {
			return nil, PlanViolation{Agent: i, OtherIdx: -1, Condition: 1,
				Detail: fmt.Sprintf("agent has %d states, want %d", len(row), T)}
		}
	}
	p := NewPlan(len(rows), T)
	for t := 0; t < T; t++ {
		r := p.Row(t)
		for i, row := range rows {
			s, ok := pack(row[t])
			if !ok {
				return nil, outsideInt32(t, i, row[t])
			}
			r[i] = s
		}
	}
	return p, nil
}

// NumAgents returns c, the team size.
func (p *Plan) NumAgents() int { return p.agents }

// Horizon returns T, the number of timesteps.
func (p *Plan) Horizon() int { return p.horizon }

// At returns agent i's state at timestep t.
func (p *Plan) At(i, t int) AgentState { return p.Row(t).At(i) }

// Row returns the states of every agent at timestep t, indexed by agent.
// The row is a view into the plan: Set writes through to it. Hot loops take
// a row once per timestep rather than calling At per agent.
func (p *Plan) Row(t int) Row {
	off := (t % p.perBlock) * p.agents
	return p.blocks[t/p.perBlock][off : off+p.agents : off+p.agents]
}

// Row is one timestep of a Plan: the packed state of every agent.
type Row []packed

// At returns agent i's state.
func (r Row) At(i int) AgentState {
	s := r[i]
	return AgentState{Vertex: grid.VertexID(s.v), Carried: ProductID(s.k)}
}

// Set stores agent i's state. It panics if the vertex or the product does
// not fit in an int32 rather than store a wrapped value.
func (r Row) Set(i int, s AgentState) {
	ps, ok := pack(s)
	if !ok {
		panic(fmt.Sprintf("warehouse: agent %d: %s", i, outsideInt32(0, i, s).Detail))
	}
	r[i] = ps
}

// pack converts s to its packed form; ok is false when a field does not
// fit in an int32.
func pack(s AgentState) (packed, bool) {
	ps := packed{v: int32(s.Vertex), k: int32(s.Carried)}
	return ps, grid.VertexID(ps.v) == s.Vertex && ProductID(ps.k) == s.Carried
}

// outsideInt32 describes the field of s that does not fit in an int32.
func outsideInt32(t, i int, s AgentState) PlanViolation {
	if grid.VertexID(int32(s.Vertex)) != s.Vertex {
		return PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 1,
			Detail: fmt.Sprintf("vertex %d outside int32", s.Vertex)}
	}
	return PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
		Detail: fmt.Sprintf("carried product %d outside int32", s.Carried)}
}
