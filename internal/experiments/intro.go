package experiments

import (
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// IntroResult reproduces the §1 motivating measurements on SandyBridge:
//
//   - idle power is ≈5% of CPU package power under load (excellent
//     processor energy proportionality) but ≈32% of full machine power;
//   - at the same full CPU utilization, a cache/memory-intensive
//     application consumes substantially more power (paper: 49%) than a
//     CPU spinning program — the dynamic power variation that makes
//     request-level accounting necessary.
type IntroResult struct {
	// PkgIdleW and PkgLoadedW are package idle and package full power
	// under the loaded reference workload.
	PkgIdleW    float64
	PkgLoadedW  float64
	PkgIdleFrac float64
	// MachineIdleW / MachineLoadedW cover the whole machine.
	MachineIdleW    float64
	MachineLoadedW  float64
	MachineIdleFrac float64
	// SpinActiveW and MemActiveW are machine active power for the
	// CPU-spin and cache/memory-intensive microbenchmarks at full
	// utilization; MemOverSpin is their ratio − 1.
	SpinActiveW float64
	MemActiveW  float64
	MemOverSpin float64
}

// Intro measures the motivating numbers.
func Intro(ex Exec, seed uint64) (*IntroResult, error) {
	spec := cpu.SandyBridge
	res := &IntroResult{}

	measure := func(mb workload.MicroBench) (machineActive, pkgFull float64, err error) {
		m, err := ex.NewMachine(spec, core.ApproachChipShare, seed)
		if err != nil {
			return 0, 0, err
		}
		mb.SpawnLoop(m.K, spec.Cores(), 1.0)
		m.Eng.RunUntil(6 * sim.Second)
		machineActive, err = WattsupActiveMean(m, m.Eng.Now(), 1*sim.Second, 3*sim.Second)
		if err != nil {
			return 0, 0, err
		}
		pkgFull = m.K.Rec.PkgActivePowerW(1*sim.Second, 3*sim.Second) + m.Chip.IdleW()
		return machineActive, pkgFull, m.FinalizeAudit()
	}

	benches := workload.MicroBenches()
	spinActive, _, err := measure(benches[0]) // cpu-spin
	if err != nil {
		return nil, err
	}
	memActive, _, err := measure(benches[4]) // mem-heavy
	if err != nil {
		return nil, err
	}
	res.SpinActiveW = spinActive
	res.MemActiveW = memActive
	res.MemOverSpin = memActive/spinActive - 1

	// Idle baselines come straight from the meters; loaded references use
	// a busy mixed workload (GAE-Hybrid peak, the observed high-load
	// scenario of §4).
	m, err := ex.NewMachine(spec, core.ApproachChipShare, seed+1)
	if err != nil {
		return nil, err
	}
	res.PkgIdleW = m.Chip.IdleW()
	res.MachineIdleW = m.Wattsup.IdleW()
	r, err := RunOn(m, RunSpec{Workload: workload.GAE{VirusLoadFraction: 0.5}, Load: PeakLoad})
	if err != nil {
		return nil, err
	}
	res.MachineLoadedW = r.MeasuredActiveW + res.MachineIdleW
	res.PkgLoadedW = m.K.Rec.PkgActivePowerW(r.T0, r.T1) + res.PkgIdleW
	res.PkgIdleFrac = res.PkgIdleW / res.PkgLoadedW
	res.MachineIdleFrac = res.MachineIdleW / res.MachineLoadedW
	return res, nil
}

// Render prints the motivating numbers next to the paper's.
func (r *IntroResult) Render() string {
	t := &Table{
		Title:  "§1 motivating measurements (SandyBridge)",
		Header: []string{"quantity", "measured", "paper"},
	}
	t.AddRow("package idle / package power at high load", pct(r.PkgIdleFrac), "~5%")
	t.AddRow("machine idle / full machine power", pct(r.MachineIdleFrac), "~32%")
	t.AddRow("CPU-spin active power (full util)", w1(r.SpinActiveW), "-")
	t.AddRow("cache/memory-intensive active power", w1(r.MemActiveW), "-")
	t.AddRow("cache/memory-intensive over spin", pct(r.MemOverSpin), "+49%")
	return t.String()
}
