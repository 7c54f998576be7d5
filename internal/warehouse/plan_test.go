package warehouse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// TestPlanBlocksHoldWholeTimesteps pins the storage layout: every block
// holds whole timesteps, at most 64 KB of them unless one timestep alone
// is larger, and the blocks add up to exactly agents·T states.
func TestPlanBlocksHoldWholeTimesteps(t *testing.T) {
	for _, c := range []int{0, 1, 7, 100, planBlockStates, planBlockStates + 1} {
		for _, T := range []int{0, 1, 37, 3600} {
			if c*T > 4<<20 {
				continue
			}
			p := NewPlan(c, T)
			if p.NumAgents() != c || p.Horizon() != T {
				t.Fatalf("NewPlan(%d, %d) reports (%d, %d)", c, T, p.NumAgents(), p.Horizon())
			}
			total := 0
			for b, blk := range p.blocks {
				if c > 0 && len(blk)%c != 0 {
					t.Errorf("c=%d T=%d: block %d holds %d states, not whole timesteps", c, T, b, len(blk))
				}
				if len(blk) > max(planBlockStates, c) {
					t.Errorf("c=%d T=%d: block %d holds %d states, over one block", c, T, b, len(blk))
				}
				total += len(blk)
			}
			if total != c*T {
				t.Errorf("c=%d T=%d: blocks hold %d states, want %d", c, T, total, c*T)
			}
			for tt := 0; tt < T; tt++ {
				if len(p.Row(tt)) != c {
					t.Fatalf("c=%d T=%d: row %d has %d states", c, T, tt, len(p.Row(tt)))
				}
			}
		}
	}
}

// TestPlanRowSetRefusesWideValues: Row.Set never wraps a value outside
// int32 into a packed state.
func TestPlanRowSetRefusesWideValues(t *testing.T) {
	for _, s := range []AgentState{
		{Vertex: math.MaxInt32 + 1, Carried: NoProduct},
		{Vertex: math.MinInt32 - 1, Carried: NoProduct},
		{Vertex: 0, Carried: math.MaxInt32 + 1},
		{Vertex: 0, Carried: math.MinInt32 - 1},
	} {
		p := NewPlan(2, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%+v) stored %+v", s, p.At(1, 0))
				}
			}()
			p.Row(0).Set(1, s)
		}()
		if got := p.At(1, 0); got != (AgentState{}) {
			t.Errorf("Set(%+v) left %+v behind", s, got)
		}
	}
}

// wideValue returns a value that does not fit in an int32.
func wideValue(rng *rand.Rand) int64 {
	switch rng.Intn(3) {
	case 0:
		return math.MaxInt32 + 1 + rng.Int63n(1<<40)
	case 1:
		return math.MinInt32 - 1 - rng.Int63n(1<<40)
	}
	return 1 << 32 // wraps to 0, a legal vertex
}

// FuzzPlanRoundTrip: random per-agent rows round-trip bit-exactly through
// PlanFromRows, At and Row, across block boundaries, and a single value
// outside int32 is refused with its agent, timestep and condition.
func FuzzPlanRoundTrip(f *testing.F) {
	f.Add(uint16(3), uint8(5), int64(1), uint8(0))
	f.Add(uint16(0), uint8(4), int64(2), uint8(0))
	f.Add(uint16(5), uint8(0), int64(3), uint8(0))
	f.Add(uint16(2731), uint8(7), int64(4), uint8(0)) // three timesteps per block
	f.Add(uint16(8200), uint8(3), int64(5), uint8(0)) // one timestep per block
	f.Add(uint16(4), uint8(9), int64(6), uint8(1))
	f.Add(uint16(4), uint8(9), int64(7), uint8(2))
	f.Add(uint16(3000), uint8(6), int64(8), uint8(1))
	f.Fuzz(func(t *testing.T, agents uint16, steps uint8, seed int64, wide uint8) {
		c, T := int(agents)%9000, int(steps)%40
		if c*T > 100_000 {
			T = 100_000 / c
		}
		rng := rand.New(rand.NewSource(seed))
		val := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return math.MaxInt32
			case 1:
				return math.MinInt32
			case 2:
				return int64(int32(rng.Uint32()))
			}
			return rng.Int63n(100) - 3
		}
		rows := make([][]AgentState, c)
		for i := range rows {
			rows[i] = make([]AgentState, T)
			for tt := range rows[i] {
				rows[i][tt] = AgentState{Vertex: grid.VertexID(val()), Carried: ProductID(val())}
			}
		}
		bad := wide%3 != 0 && c > 0 && T > 0
		var badI, badT int
		if bad {
			badI, badT = rng.Intn(c), rng.Intn(T)
			if wide%3 == 1 {
				rows[badI][badT].Vertex = grid.VertexID(wideValue(rng))
			} else {
				rows[badI][badT].Carried = ProductID(wideValue(rng))
			}
		}
		p, err := PlanFromRows(rows)
		if bad {
			var v PlanViolation
			if !errors.As(err, &v) {
				t.Fatalf("value outside int32 at agent %d, t=%d accepted (err %v)", badI, badT, err)
			}
			want := 1 // a vertex breaches condition (1), a product condition (3)
			if wide%3 == 2 {
				want = 3
			}
			if v.Agent != badI || v.Timestep != badT || v.Condition != want {
				t.Fatalf("violation %v, want agent %d at t=%d, condition %d", v, badI, badT, want)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		wantT := T
		if c == 0 {
			wantT = 0
		}
		if p.NumAgents() != c || p.Horizon() != wantT {
			t.Fatalf("plan is %d agents over %d steps, want %d over %d", p.NumAgents(), p.Horizon(), c, wantT)
		}
		q := NewPlan(c, wantT)
		for tt := 0; tt < wantT; tt++ {
			row, out := p.Row(tt), q.Row(tt)
			if len(row) != c {
				t.Fatalf("row %d has %d states, want %d", tt, len(row), c)
			}
			for i := range row {
				if got := row.At(i); got != rows[i][tt] || p.At(i, tt) != got {
					t.Fatalf("agent %d at t=%d reads %+v / %+v, wrote %+v", i, tt, got, p.At(i, tt), rows[i][tt])
				}
				out.Set(i, rows[i][tt])
			}
		}
		for tt := 0; tt < wantT; tt++ {
			for i := 0; i < c; i++ {
				if q.At(i, tt) != rows[i][tt] {
					t.Fatalf("Set then At of agent %d at t=%d gives %+v, want %+v", i, tt, q.At(i, tt), rows[i][tt])
				}
			}
		}
	})
}
