package model

import (
	"powercontainers/internal/cpu"
)

// ChipShare computes Eq. 3 for the task currently running on core self:
//
//	Mchipshare(c) = Mcore(c) / (1 + Σ_{siblings i} Mcore(i))
//
// myUtil is the current period's utilization of core self; sibling
// utilizations are read from each sibling's most recent published sample
// without any cross-core synchronization — the paper's deliberately
// approximate, coordination-free estimate. A sibling the OS is running the
// idle task on (its Busy flag is clear) counts as zero: an idle core takes
// no overflow interrupts, so its last published sample can be arbitrarily
// old. If a core is busy while all siblings idle, the full chip
// maintenance power attributes to it (share = myUtil / 1); with k
// fully-busy cores each gets ≈1/k.
//
// cores is indexed by core ID, as kernel.Kernel.Cores is, so a chip's
// cores are the contiguous run perChip long that starts at
// chip·perChip; only that run is scanned. The chip comes from the core's
// own Chip field rather than a division, which would sit on the loop's
// critical path.
//
//pclint:hotpath
func ChipShare(cores []*cpu.Core, perChip, self int, myUtil float64) float64 {
	if myUtil <= 0 {
		return 0
	}
	first := cores[self].Chip * perChip
	var siblings float64
	for _, sib := range cores[first : first+perChip] {
		if sib.ID == self || !sib.Busy {
			continue // an idle sibling's stale sample counts as zero
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
func OracleChipShare(cores []*cpu.Core, perChip, self int, myUtil float64) float64 {
	if myUtil <= 0 {
		return 0
	}
	first := cores[self].Chip * perChip
	busy := 0
	for _, sib := range cores[first : first+perChip] {
		if sib.ID != self && sib.Busy {
			busy++
		}
	}
	//pclint:allow floatsafe busy is a non-negative count, so the denominator is >= 1
	return myUtil / float64(1+busy)
}
