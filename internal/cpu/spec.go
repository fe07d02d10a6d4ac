// Package cpu models the processor hardware visible to the power-container
// facility: multicore chips with per-core hardware event counters (non-halt
// cycles, retired instructions, floating point operations, last-level cache
// references, memory transactions), threshold-based counter overflow
// interrupts, and per-core duty-cycle modulation.
//
// The three machine models mirror the paper's evaluation platforms: a
// dual-socket dual-core Intel Xeon 5160 "Woodcrest", a dual-socket six-core
// Xeon L5640 "Westmere", and a single-socket quad-core Xeon E31220
// "SandyBridge".
package cpu

import (
	"fmt"
	"strings"
)

// MachineSpec describes the processor topology and timing of a simulated
// machine. Power characteristics live in package power, keyed by this spec,
// so the facility's observation surface (counters, duty cycle) stays
// separate from the hidden ground truth it tries to model.
type MachineSpec struct {
	// Name identifies the machine model, e.g. "SandyBridge".
	Name string
	// Chips is the number of processor sockets.
	Chips int
	// CoresPerChip is the number of cores per socket.
	CoresPerChip int
	// FreqHz is the core clock frequency.
	FreqHz float64
	// MemStallCycles is the number of extra stall cycles a memory
	// transaction costs on this machine; it makes memory-bound work
	// relatively slower on older platforms, which drives the
	// cross-machine energy-affinity differences of Figure 13.
	MemStallCycles float64
	// WorkScale is the cycle multiplier for one unit of reference work
	// (1.0 = SandyBridge-generation IPC): older microarchitectures need
	// more cycles for the same instructions. Zero means 1.0.
	WorkScale float64
	// DutyLevels is the number of duty-cycle modulation steps (Intel
	// exposes multipliers of 1/8 or 1/16; the paper uses 1/8).
	DutyLevels int
}

// Cores returns the total core count.
func (s MachineSpec) Cores() int { return s.Chips * s.CoresPerChip }

// ChipOf returns the chip index owning the given global core index.
func (s MachineSpec) ChipOf(core int) int { return core / s.CoresPerChip }

// Validate reports a descriptive error for malformed specs.
func (s MachineSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("cpu: spec has empty name")
	case s.Chips <= 0 || s.CoresPerChip <= 0:
		return fmt.Errorf("cpu: spec %q has invalid topology %dx%d", s.Name, s.Chips, s.CoresPerChip)
	case s.FreqHz <= 0:
		return fmt.Errorf("cpu: spec %q has invalid frequency %g", s.Name, s.FreqHz)
	case s.DutyLevels < 2:
		return fmt.Errorf("cpu: spec %q has too few duty levels %d", s.Name, s.DutyLevels)
	case s.MemStallCycles < 0:
		return fmt.Errorf("cpu: spec %q has negative memory stall cycles", s.Name)
	case s.WorkScale < 0:
		return fmt.Errorf("cpu: spec %q has negative work scale", s.Name)
	}
	return nil
}

// The paper's three evaluation machines (§4): release years 2006, 2010 and
// 2011. Frequencies are the nominal clock rates reported in the paper.
var (
	// Woodcrest is the dual-socket, dual-core Xeon 5160 machine (3.0 GHz,
	// 4 MB shared L2 per chip).
	Woodcrest = MachineSpec{
		Name:           "Woodcrest",
		Chips:          2,
		CoresPerChip:   2,
		FreqHz:         3.0e9,
		MemStallCycles: 200,
		WorkScale:      1.9,
		DutyLevels:     8,
	}

	// Westmere is the dual-socket, six-core Xeon L5640 machine (2.26 GHz
	// low-power parts, 12 MB shared L3 per chip).
	Westmere = MachineSpec{
		Name:           "Westmere",
		Chips:          2,
		CoresPerChip:   6,
		FreqHz:         2.26e9,
		MemStallCycles: 170,
		WorkScale:      1.15,
		DutyLevels:     8,
	}

	// SandyBridge is the single-socket, quad-core Xeon E31220 machine
	// (3.1 GHz, 8 MB shared L3).
	SandyBridge = MachineSpec{
		Name:           "SandyBridge",
		Chips:          1,
		CoresPerChip:   4,
		FreqHz:         3.1e9,
		MemStallCycles: 120,
		WorkScale:      1.0,
		DutyLevels:     8,
	}
)

// Specs lists the three evaluation machines in the paper's order.
func Specs() []MachineSpec {
	return []MachineSpec{Woodcrest, Westmere, SandyBridge}
}

// SpecByName looks a machine model up by name, ignoring case.
func SpecByName(name string) (MachineSpec, error) {
	for _, s := range Specs() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return MachineSpec{}, fmt.Errorf("cpu: unknown machine spec %q", name)
}
