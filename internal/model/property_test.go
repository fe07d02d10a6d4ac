package model

import (
	"math"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

// TestChipShareSiblingPermutationInvariance: Eq. 3 sums sibling
// utilizations, so the share must not depend on the order in which the
// cores slice enumerates the siblings. SandyBridge has one chip, so any
// permutation of the slice keeps every sibling in the run ChipShare
// scans. Tolerance 1e-12 allows only float summation reordering.
func TestChipShareSiblingPermutationInvariance(t *testing.T) {
	spec := cpu.SandyBridge
	rng := sim.NewRand(11)
	for trial := 0; trial < 200; trial++ {
		cores := make([]*cpu.Core, spec.Cores())
		for i := range cores {
			cores[i] = cpu.NewCore(i, spec)
			cores[i].Busy = true
			cores[i].LastUtil = 2*rng.Float64() - 0.5 // includes out-of-range samples
		}
		self := rng.Intn(spec.Cores())
		myUtil := rng.Float64()
		if myUtil == 0 {
			myUtil = 0.5
		}

		base := ChipShare(cores, spec.CoresPerChip, self, myUtil)
		if base <= 0 || base > myUtil+1e-12 || base > 1+1e-12 {
			t.Fatalf("trial %d: share %v outside (0, min(1, myUtil %v)]", trial, base, myUtil)
		}
		perm := make([]*cpu.Core, len(cores))
		for i, j := range rng.Perm(len(cores)) {
			perm[i] = cores[j]
		}
		got := ChipShare(perm, spec.CoresPerChip, self, myUtil)
		if math.Abs(got-base) > 1e-12 {
			t.Fatalf("trial %d: share changed under permutation: %v vs %v", trial, got, base)
		}
	}
}

// TestChipShareBusySiblingsBound: with k fully busy cores on a chip each
// core's share is exactly 1/k of its utilization denominator — the
// paper's "with k fully-busy cores each gets ≈1/k" sanity case — and an
// all-idle chip attributes the whole maintenance power to the one busy
// core.
func TestChipShareBusySiblingsBound(t *testing.T) {
	spec := cpu.Westmere
	cores := make([]*cpu.Core, spec.Cores())
	for i := range cores {
		cores[i] = cpu.NewCore(i, spec)
		cores[i].Busy = true
		cores[i].LastUtil = 1
	}
	got := ChipShare(cores, spec.CoresPerChip, 0, 1)
	want := 1 / float64(spec.CoresPerChip)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("fully busy chip: share %v, want %v", got, want)
	}

	for i := range cores {
		cores[i].LastUtil = 0
	}
	if got := ChipShare(cores, spec.CoresPerChip, 0, 1); got != 1 {
		t.Fatalf("lone busy core: share %v, want 1", got)
	}
	if got := ChipShare(cores, spec.CoresPerChip, 0, 0); got != 0 {
		t.Fatalf("idle core: share %v, want 0", got)
	}
}
