package main

import (
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/wsp"
)

func TestBuiltinMapNames(t *testing.T) {
	for _, name := range []string{"fulfillment1", "fulfillment2", "sorting"} {
		m, err := wsp.BuiltinMap(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if m.W == nil || m.S == nil {
			t.Errorf("%s: incomplete map", name)
		}
	}
	if _, err := wsp.BuiltinMap("nope"); err == nil {
		t.Error("unknown map accepted")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]wsp.Strategy{
		"route":    wsp.RoutePacking,
		"flows":    wsp.SequentialFlows,
		"contract": wsp.ContractILP,
	}
	for name, want := range cases {
		got, err := wsp.ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := wsp.ParseStrategy("quantum"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestCmdMapAndSolveRun(t *testing.T) {
	ctx := context.Background()
	if err := cmdMap([]string{"-name", "sorting"}); err != nil {
		t.Errorf("cmdMap: %v", err)
	}
	if err := cmdSolve(ctx, []string{"-name", "sorting", "-units", "80", "-T", "3600"}); err != nil {
		t.Errorf("cmdSolve: %v", err)
	}
}

func TestCmdSweepRuns(t *testing.T) {
	ctx := context.Background()
	if err := cmdSweep(ctx, []string{"-corridors", "2", "-lens", "6", "-units", "96", "-points", "2"}); err != nil {
		t.Errorf("cmdSweep: %v", err)
	}
	if err := cmdSweep(ctx, []string{"-corridors", "x"}); err == nil {
		t.Error("bad corridor list accepted")
	}
	if err := cmdSweep(ctx, []string{"-points", "0"}); err == nil {
		t.Error("zero points accepted")
	}
	if err := cmdSweep(ctx, []string{"-units", "2", "-points", "3"}); err == nil {
		t.Error("fewer units than points accepted (zero/duplicate levels)")
	}
}

// TestCmdSweepCanceled pins the interrupt path: a sweep driven by an
// already-cancelled context must flush its (empty) table, report an error
// that classifies as wsp.ErrCanceled — the distinct-exit-code path of
// main — and must not print a completion summary line.
func TestCmdSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := captureStdout(t, func() error {
		return cmdSweep(ctx, []string{"-corridors", "2", "-lens", "6", "-units", "96", "-points", "2"})
	})
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if !errors.Is(err, wsp.ErrCanceled) {
		t.Fatalf("cancelled sweep error %v does not classify as wsp.ErrCanceled", err)
	}
	if !strings.Contains(out, "Components") {
		t.Fatalf("cancelled sweep did not flush the table header:\n%q", out)
	}
	if strings.Contains(out, "topologies ×") {
		t.Fatalf("cancelled sweep printed a completion summary:\n%s", out)
	}
}

// captureStdout runs f with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := f()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return out, ferr
}

// TestSweepInfeasibleContractCell is the end-to-end regression test for the
// solver's non-optimal paths: a sweep cell whose contract conjunction is
// LP-infeasible (the solver returns &Solution{Status: Infeasible} with nil
// Values and nil Objective) must flow through flow.ContractModel, core's
// retry loop, and the solver pool as an "unsolved" row — not a nil-pointer
// panic, and not an aborted grid walk.
func TestSweepInfeasibleContractCell(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdSweep(context.Background(), []string{
			"-corridors", "2", "-lens", "6",
			"-stripes", "1", "-products", "2",
			"-units", "60", "-points", "1", "-T", "40",
			"-strategy", "contract",
		})
	})
	if err != nil {
		t.Fatalf("sweep aborted instead of recording the infeasible cell: %v\n%s", err, out)
	}
	if !strings.Contains(out, "unsolved") {
		t.Fatalf("infeasible contract cell not reported as unsolved:\n%s", out)
	}
	if !strings.Contains(out, "1 topologies × 1 levels") {
		t.Fatalf("grid walk summary missing (walk aborted early?):\n%s", out)
	}
}

// TestSweepFeasibleContractCell pins the companion happy path on the same
// tiny topology, so the infeasible test above cannot rot into "everything
// is unsolved for an unrelated reason".
func TestSweepFeasibleContractCell(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdSweep(context.Background(), []string{
			"-corridors", "2", "-lens", "6",
			"-stripes", "1", "-products", "2",
			// T stays in the feasible-rate band: at T=3600 this topology
			// falls into the integer-rate regime (fincap ≤ UNITS_AT/qc < 1
			// forces all integer pick rates to zero) and the conjunction is
			// genuinely unsatisfiable.
			"-units", "12", "-points", "1", "-T", "800",
			"-strategy", "contract",
		})
	})
	if err != nil {
		t.Fatalf("feasible sweep failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "unsolved") {
		t.Fatalf("feasible cell reported unsolved:\n%s", out)
	}
}

// TestCmdLifelongStream drives the lifelong subcommand end to end on the
// sorting map: streamed epoch lines, batch completions, and the final
// summary must all appear, and the bad-flag paths must error out.
func TestCmdLifelongStream(t *testing.T) {
	ctx := context.Background()
	out, err := captureStdout(t, func() error {
		return cmdLifelong(ctx, []string{
			"-name", "sorting", "-batches", "0:16,2000:16", "-T", "3600", "-stream",
		})
	})
	if err != nil {
		t.Fatalf("cmdLifelong: %v\n%s", err, out)
	}
	for _, want := range []string{"epoch 1", "epoch 2", "batch released@0 completed", "batch released@2000 completed", "2 epochs, peak"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := cmdLifelong(ctx, []string{"-batches", "0-16"}); err == nil {
		t.Error("bad batch separator accepted")
	}
	if err := cmdLifelong(ctx, []string{"-batches", "x:16"}); err == nil {
		t.Error("bad batch release accepted")
	}
	if err := cmdLifelong(ctx, []string{"-batches", " , "}); err == nil {
		t.Error("empty batch list accepted")
	}
}

// TestCmdLifelongCanceled pins the interrupt path: a run driven by an
// already-cancelled context still flushes its (empty) partial report and
// classifies as wsp.ErrCanceled, main's distinct-exit-code path.
func TestCmdLifelongCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := captureStdout(t, func() error {
		return cmdLifelong(ctx, []string{"-name", "sorting", "-batches", "0:16"})
	})
	if err == nil {
		t.Fatal("cancelled lifelong run returned nil error")
	}
	if !errors.Is(err, wsp.ErrCanceled) {
		t.Fatalf("cancelled run error %v does not classify as wsp.ErrCanceled", err)
	}
	if !strings.Contains(out, "0 epochs") {
		t.Fatalf("cancelled run did not flush its partial report:\n%q", out)
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 2,3 ,4")
	if err != nil || len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts(""); err == nil {
		t.Error("empty list accepted")
	}
}
