package agentplan

import (
	"testing"

	"repro/internal/cycles"
)

// TestRealizeAllocsIndependentOfHorizon guards Realize's allocation
// profile: set-up allocates a fixed number of buffers plus one state row
// per agent, and the per-step loop allocates nothing. So doubling the
// horizon must not change the allocation count, and doubling the team
// must add exactly one allocation per added agent. Any per-step
// allocation fails the first half; per-agent set-up beyond the row, such
// as agents allocated one by one, fails the second.
func TestRealizeAllocsIndependentOfHorizon(t *testing.T) {
	w, s := ringSystem(t)
	allocs := func(units []int, T int) (float64, int) {
		wl := mustWorkload(t, w, units...)
		cs, err := cycles.Synthesize(s, wl, 1600, cycles.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := Realize(cs, wl, T); err != nil {
				t.Fatal(err)
			}
		}), cs.NumAgents()
	}
	short, small := allocs([]int{6, 4}, 800)
	long, _ := allocs([]int{6, 4}, 1600)
	if long != short {
		t.Errorf("Realize allocations depend on the horizon: %v at T=800, %v at T=1600", short, long)
	}
	wide, large := allocs([]int{60, 40}, 1600)
	if large <= small {
		t.Fatalf("larger workload did not grow the team: %d vs %d agents", large, small)
	}
	if got, want := wide-long, float64(large-small); got != want {
		t.Errorf("Realize allocations grew by %v from %d to %d agents, want one per agent (%v)", got, small, large, want)
	}
}
