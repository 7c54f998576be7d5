package cycles

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/lp"
)

// TestSynthesizeCancelParity pins the inert-channel contract of the
// route-packing cancellation check: a synthesis run with an open (never
// fired) cancel channel is bit-identical to one with no channel at all.
func TestSynthesizeCancelParity(t *testing.T) {
	w, s := ringSystem(t)
	workload := wl(t, w, 20, 12)

	want, err := Synthesize(s, workload, 600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inert := make(chan struct{})
	defer close(inert)
	got, err := Synthesize(s, workload, 600, Options{Cancel: inert})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("synthesis with an inert cancel channel differs from a channel-free run")
	}
}

// TestSynthesizeCanceled: a pre-fired channel aborts the packing loop at
// its first per-cycle check, with the error classified under lp.ErrCanceled
// (how a context deadline lands inside route packing).
func TestSynthesizeCanceled(t *testing.T) {
	w, s := ringSystem(t)
	workload := wl(t, w, 20, 12)

	fired := make(chan struct{})
	close(fired)
	cs, err := Synthesize(s, workload, 600, Options{Cancel: fired})
	if cs != nil || err == nil {
		t.Fatalf("cancelled synthesis returned (%v, %v), want error", cs, err)
	}
	if !errors.Is(err, lp.ErrCanceled) {
		t.Fatalf("%v does not classify as lp.ErrCanceled", err)
	}
}

// TestSynthesizeWarmScratch: a synthesis reusing a warm Scratch returns the
// same Set — or the same error string, attempt log included — as one on a
// fresh Scratch, across workloads that pack, overflow into many cycles, and
// exhaust the residual capacities.
func TestSynthesizeWarmScratch(t *testing.T) {
	w, s := ringSystem(t)
	sc := &Scratch{}
	for _, tc := range []struct {
		tag   string
		units []int
		T     int
	}{
		{"ring", []int{20, 12}, 600},
		{"heavy", []int{120, 90}, 600},
		{"tight", []int{40, 40}, 240},
		{"zero", []int{0, 0}, 600},
		{"exhausted", []int{300, 300}, 120},
		{"ring-again", []int{20, 12}, 600},
	} {
		workload := wl(t, w, tc.units...)
		want, werr := Synthesize(s, workload, tc.T, Options{})
		got, gerr := Synthesize(s, workload, tc.T, Options{Scratch: sc})
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: warm err=%v, fresh err=%v", tc.tag, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: warm-scratch Set differs from a fresh synthesis", tc.tag)
		}
	}
}
