package model

import (
	"powercontainers/internal/cpu"
)

// IdleChecker reports whether the OS is currently scheduling the idle task
// on a core. Eq. 3 uses it to treat stale samples from idle siblings as
// zero activity: an idle core takes no overflow interrupts, so its last
// published utilization sample can be arbitrarily old.
type IdleChecker interface {
	CoreIdle(core int) bool
}

// ChipShare computes Eq. 3 for the task currently running on core self:
//
//	Mchipshare(c) = Mcore(c) / (1 + Σ_{siblings i} Mcore(i))
//
// myUtil is the current period's utilization of core self; sibling
// utilizations are read from each sibling's most recent published sample
// without any cross-core synchronization — the paper's deliberately
// approximate, coordination-free estimate. If a core is busy while all
// siblings idle, the full chip maintenance power attributes to it
// (share = myUtil / 1); with k fully-busy cores each gets ≈1/k.
//
// cores is indexed by core ID, as kernel.Kernel.Cores is, so a chip's
// cores are the contiguous run spec.CoresPerChip long that starts at
// chip·CoresPerChip; only that run is scanned. The chip comes from the
// core's own Chip field rather than spec.ChipOf, whose integer division
// would sit on the loop's critical path.
func ChipShare(spec cpu.MachineSpec, cores []*cpu.Core, self int, myUtil float64, idle IdleChecker) float64 {
	if myUtil <= 0 {
		return 0
	}
	first := cores[self].Chip * spec.CoresPerChip
	var siblings float64
	for _, sib := range cores[first : first+spec.CoresPerChip] {
		if sib.ID == self {
			continue
		}
		if idle != nil && idle.CoreIdle(sib.ID) {
			continue // stale sample from an idle sibling counts as zero
		}
		u := sib.LastUtil
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		siblings += u
	}
	//pclint:allow floatsafe siblings sums utilizations clamped to [0,1], so the denominator is >= 1
	return myUtil / (1 + siblings)
}

// OracleChipShare computes the share with perfect global knowledge of how
// many sibling cores are busy right now. It is the ablation baseline the
// synchronization-free estimate is compared against.
func OracleChipShare(spec cpu.MachineSpec, self int, myUtil float64, idle IdleChecker) float64 {
	if myUtil <= 0 {
		return 0
	}
	chip := spec.ChipOf(self)
	busy := 0
	for c := chip * spec.CoresPerChip; c < (chip+1)*spec.CoresPerChip; c++ {
		if c == self {
			continue
		}
		if idle == nil || !idle.CoreIdle(c) {
			busy++
		}
	}
	//pclint:allow floatsafe busy is a non-negative count, so the denominator is >= 1
	return myUtil / float64(1+busy)
}
