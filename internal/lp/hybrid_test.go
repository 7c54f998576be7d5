package lp

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// This file pins the hybrid mode (hybrid.go) and the root cuts (cuts.go) to
// the exact-only engines: hybrid Solutions must be bit-identical on every
// corpus, root-cut Solutions must preserve the status and the optimal
// objective exactly, and no separated cut may exclude a known integer
// optimum. Tests are named TestRevisedParity* so `make test-lp-long` scales
// their rounds alongside the representation-parity fuzzes.

// TestRevisedParityHybridLP checks LP bit-identity of SimplexHybrid against
// the exact-only engine on the bounded-random and network corpora.
func TestRevisedParityHybridLP(t *testing.T) {
	rounds := parityRounds(t, 200)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(7000 + seed)))
		var p *Problem
		if seed%4 == 3 {
			p = randomSparseNetwork(rng, 10+rng.Intn(6), 3+rng.Intn(3), false)
		} else {
			p = randomBoundedProblem(rng, false)
		}
		exact, err := SolveLPWith(p, SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		hyb, err := SolveLPWith(p, SolveOptions{Simplex: SimplexHybrid})
		if err != nil {
			t.Fatalf("seed %d: hybrid: %v", seed, err)
		}
		requireSameSolution(t, "hybrid-lp", exact, hyb)
	}
}

// TestRevisedParityHybridILP checks branch-and-bound bit-identity of
// SimplexHybrid: per-node certification (or the bail to the plain exact
// search) must reproduce the exact-only tree's answer exactly.
func TestRevisedParityHybridILP(t *testing.T) {
	rounds := parityRounds(t, 100)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(8000 + seed)))
		var p *Problem
		if seed%4 == 3 {
			p = randomSparseNetwork(rng, 8+rng.Intn(5), 3+rng.Intn(2), true)
		} else {
			p = randomBoundedProblem(rng, true)
		}
		exact, err := SolveILP(p, ILPOptions{})
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		hyb, err := SolveILP(p, ILPOptions{Simplex: SimplexHybrid})
		if err != nil {
			t.Fatalf("seed %d: hybrid: %v", seed, err)
		}
		requireSameSolution(t, "hybrid-ilp", exact, hyb)
	}
}

// TestRevisedParityRootCuts checks the RootCuts contract: identical status,
// identical optimal objective (cuts never exclude an integer point), and an
// exactly feasible returned assignment. Values may legitimately differ from
// the cut-free tree under alternate optima, so they are checked for
// feasibility and objective, not for equality.
func TestRevisedParityRootCuts(t *testing.T) {
	rounds := parityRounds(t, 100)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(9000 + seed)))
		var p *Problem
		if seed%3 == 2 {
			p = randomSparseNetwork(rng, 8+rng.Intn(5), 3+rng.Intn(2), true)
		} else {
			p = randomBoundedProblem(rng, true)
		}
		exact, err := SolveILP(p, ILPOptions{})
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		cut, err := SolveILP(p, ILPOptions{RootCuts: true})
		if err != nil {
			t.Fatalf("seed %d: rootcuts: %v", seed, err)
		}
		if exact.Status != cut.Status {
			t.Fatalf("seed %d: status exact=%v cuts=%v", seed, exact.Status, cut.Status)
		}
		if exact.Status != StatusOptimal {
			continue
		}
		if (exact.Objective == nil) != (cut.Objective == nil) ||
			(exact.Objective != nil && exact.Objective.Cmp(cut.Objective) != 0) {
			t.Fatalf("seed %d: objective exact=%v cuts=%v", seed, exact.Objective, cut.Objective)
		}
		if err := p.Check(cut.Values); err != nil {
			t.Fatalf("seed %d: cut solution infeasible: %v", seed, err)
		}
	}
}

// TestRevisedParityCutValidity fuzzes the one invariant every cut family
// must keep: no separated cut may exclude the known integer optimum of the
// uncut problem.
func TestRevisedParityCutValidity(t *testing.T) {
	rounds := parityRounds(t, 150)
	checked := 0
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(10000 + seed)))
		var p *Problem
		if seed%2 == 1 {
			p = randomSparseNetwork(rng, 8+rng.Intn(5), 3+rng.Intn(2), true)
		} else {
			p = randomBoundedProblem(rng, true)
		}
		exact, err := SolveILP(p, ILPOptions{})
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		if exact.Status != StatusOptimal {
			continue
		}
		for _, cut := range separateRootCuts(p, nil) {
			lhs := new(big.Rat)
			tmp := new(big.Rat)
			for _, term := range cut.Terms {
				lhs.Add(lhs, tmp.Mul(term.Coef, exact.Values[term.Var]))
			}
			violated := false
			switch cut.Sense {
			case LE:
				violated = lhs.Cmp(cut.RHS) > 0
			case GE:
				violated = lhs.Cmp(cut.RHS) < 0
			case EQ:
				violated = lhs.Cmp(cut.RHS) != 0
			}
			if violated {
				t.Fatalf("seed %d: cut %q excludes the integer optimum: lhs=%s %s rhs=%s",
					seed, cut.Name, lhs, cut.Sense, cut.RHS)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("fuzz separated no cuts at all; corpus or separator regressed")
	}
}

// TestHybridDisagreementFallback fault-injects wrong float bases into the
// exact verifier. A structurally invalid snapshot must be rejected
// outright (nil); a valid-shaped but wrong snapshot may be rejected OR
// repaired, but anything the verifier does return must be bit-identical to
// the exact-only answer — that is the whole hybrid contract.
func TestHybridDisagreementFallback(t *testing.T) {
	rounds := parityRounds(t, 60)
	repaired, rejected := 0, 0
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(11000 + seed)))
		p := randomSparseNetwork(rng, 9+rng.Intn(5), 3+rng.Intn(2), false)
		exact, err := SolveLPWith(p, SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		ft := newRevisedFloat(p)
		lo, hi := declaredBounds(p)
		if ft.solveNode(lo, hi) != StatusOptimal {
			continue
		}
		basis, stat := ft.basisState()

		// Corruption 1: duplicate basis column — must be rejected.
		dup := append([]int(nil), basis...)
		if len(dup) >= 2 {
			dupStat := append([]vstat(nil), stat...)
			dupStat[dup[1]] = nbLower
			dup[1] = dup[0]
			if sol := verifyFloatBasis(p, dup, dupStat, nil); sol != nil {
				t.Fatalf("seed %d: duplicate-column basis was accepted", seed)
			}
		}

		// Corruption 2: swap a basic column with a nonbasic structural one,
		// keeping the snapshot structurally valid. The verifier may reject
		// (singular / un-homeable) or repair via dual pivots; a repaired
		// answer must be certified and therefore bit-identical.
		bad := append([]int(nil), basis...)
		badStat := append([]vstat(nil), stat...)
		swapped := false
		for j := 0; j < len(p.Vars) && !swapped; j++ {
			if badStat[j] != nbLower {
				continue
			}
			old := bad[0]
			bad[0] = j
			badStat[j] = inBasis
			badStat[old] = nbLower
			swapped = true
		}
		if !swapped {
			continue
		}
		sol := verifyFloatBasis(p, bad, badStat, nil)
		if sol == nil {
			rejected++
			continue
		}
		repaired++
		requireSameSolution(t, "fault-injected", exact, sol)
	}
	if repaired+rejected == 0 {
		t.Fatal("fault injection never ran; corpus regressed")
	}
}

// TestFloatRevisedPartialLP sanity-checks the partial-pricing float engine
// against the exact engine: same status and an objective within float
// tolerance, on contract-shaped networks, on small random bounded LPs
// (1–4 rows), and through float branch and bound on small random ILPs.
func TestFloatRevisedPartialLP(t *testing.T) {
	floatILP := func(p *Problem) (*Solution, error) { return SolveILP(p, ILPOptions{Engine: EngineFloat}) }
	exactILP := func(p *Problem) (*Solution, error) { return SolveILP(p, ILPOptions{}) }
	rounds := parityRounds(t, 40)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(12000 + seed)))
		p := randomSparseNetwork(rng, 12+rng.Intn(6), 4+rng.Intn(3), false)
		requireFloatMatchesExact(t, "network seed "+strconv.Itoa(seed), p, SolveLP, SolveLPFloat)
		small := randomBoundedProblem(rng, false)
		requireFloatMatchesExact(t, "small LP seed "+strconv.Itoa(seed), small, SolveLP, SolveLPFloat)
		ip := randomBoundedProblem(rng, true)
		requireFloatMatchesExact(t, "small ILP seed "+strconv.Itoa(seed), ip, exactILP, floatILP)
	}
}

// requireFloatMatchesExact solves p with both entry points and requires the
// same status and, at an optimum, objectives within 1e-6 (relative above 1).
func requireFloatMatchesExact(t *testing.T, tag string, p *Problem, exactSolve, floatSolve func(*Problem) (*Solution, error)) {
	t.Helper()
	exact, err := exactSolve(p)
	if err != nil {
		t.Fatalf("%s: exact: %v", tag, err)
	}
	fl, err := floatSolve(p)
	if err != nil {
		t.Fatalf("%s: float: %v", tag, err)
	}
	if exact.Status != fl.Status {
		t.Fatalf("%s: status exact=%v float=%v\n%s", tag, exact.Status, fl.Status, p)
	}
	if exact.Status != StatusOptimal || exact.Objective == nil {
		return
	}
	want, _ := exact.Objective.Float64()
	got, _ := fl.Objective.Float64()
	if math.Abs(want-got) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: objective exact=%g float=%g\n%s", tag, want, got, p)
	}
}
