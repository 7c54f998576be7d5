package agentplan

import (
	"runtime"
	"testing"

	"repro/internal/cycles"
)

// planBlocks is the number of storage blocks of a plan of c agents over T
// timesteps: whole timesteps of 8-byte states, about 64 KB a block.
func planBlocks(c, T int) int {
	per := max(1, (64<<10)/(8*c))
	return (T + per - 1) / per
}

// TestRealizeAllocsIndependentOfHorizon guards Realize's allocation
// profile. Set-up allocates a fixed number of buffers plus the plan's
// blocks, and the per-step loop allocates nothing. So, net of the blocks,
// the allocation count must not change with the horizon or with the team.
// Any per-step allocation fails the first comparison; per-agent set-up,
// such as a state row or an agent allocated one by one, fails the second.
// Bytes per Realize must stay within 8 bytes per agent-step plus fixed
// set-up: 16-byte states, or rows rounded up to whole pages, fail that.
func TestRealizeAllocsIndependentOfHorizon(t *testing.T) {
	w, s := ringSystem(t)
	type profile struct {
		agents, T    int
		allocs, blks int
		bytes        uint64
	}
	measure := func(units []int, T int) profile {
		wl := mustWorkload(t, w, units...)
		cs, err := cycles.Synthesize(s, wl, 1600, cycles.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, _, err := Realize(cs, wl, T); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, run)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		c := cs.NumAgents()
		return profile{agents: c, T: T, allocs: int(allocs), blks: planBlocks(c, T),
			bytes: (after.TotalAlloc - before.TotalAlloc) / runs}
	}
	short := measure([]int{6, 4}, 800)
	long := measure([]int{6, 4}, 4100)
	wide := measure([]int{60, 40}, 4100)
	if wide.agents <= short.agents {
		t.Fatalf("larger workload did not grow the team: %d vs %d agents", wide.agents, short.agents)
	}
	if long.blks == short.blks || wide.blks == long.blks {
		t.Fatalf("plans of %d, %d and %d blocks do not tell blocks from steps or agents", short.blks, long.blks, wide.blks)
	}
	fixed := short.allocs - short.blks
	for _, p := range []profile{long, wide} {
		if got := p.allocs - p.blks; got != fixed {
			t.Errorf("%d agents over %d steps: %d allocations beside %d plan blocks, want %d as at %d agents over %d steps",
				p.agents, p.T, got, p.blks, fixed, short.agents, short.T)
		}
	}
	// Set-up is measured at T = 1, where the plan is one 8-byte state per
	// agent. A longer plan may add at most 8 bytes per agent-step, plus
	// what filling blocks with whole timesteps leaves unused: less than one
	// timestep per block, and less than a page in the last block.
	for _, units := range [][]int{{6, 4}, {60, 40}} {
		one := measure(units, 1)
		setup := int64(one.bytes) - int64(8*one.agents)
		for _, T := range []int{800, 4100} {
			p := measure(units, T)
			limit := int64(8*p.agents*T) + setup + int64(8*p.agents*p.blks) + 8<<10
			if int64(p.bytes) > limit {
				t.Errorf("%d agents over %d steps: Realize allocates %d bytes, over %d (8 per agent-step plus %d of set-up)",
					p.agents, T, p.bytes, limit, setup)
			}
		}
	}
}
