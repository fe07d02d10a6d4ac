// Package power holds the simulated machines' hidden ground truth: the
// actual power each machine draws as a function of its activity, plus the
// two measurement instruments the paper uses (an on-chip package meter on
// SandyBridge and a Wattsup wall meter on every machine).
//
// The facility under test never reads ground truth directly — it sees only
// hardware counters and delayed meter samples, exactly like the paper's
// kernel facility. Ground truth deliberately contains power the linear
// event model cannot express (a pipeline×memory synergy term and per-chip
// maintenance power), because that mismatch between calibration and
// production behaviour is what the paper's recalibration technique exists
// to fix.
package power

import (
	"fmt"

	"powercontainers/internal/cpu"
)

// TrueProfile is the hidden ground-truth power function of one machine.
// All "W" fields are watts. Per-event fields are watts per unit of
// per-cycle event rate on one fully-busy core (e.g. InsW is the wattage a
// core adds when retiring one instruction per non-halt cycle).
type TrueProfile struct {
	// MachineIdleW is whole-machine idle power (PSU, fans, DRAM refresh,
	// spun disks); the Wattsup baseline.
	MachineIdleW float64
	// PkgIdleW is processor-package idle power per chip; the on-chip
	// meter baseline.
	PkgIdleW float64
	// ChipMaintW is the shared maintenance power one chip draws whenever
	// at least one of its cores is running (clock distribution, voltage
	// regulators, uncore). This is the component Eq. 2's chip-share term
	// models and Eq. 1 misses (Figure 1).
	ChipMaintW float64
	// CoreW is the busy power of one core at full duty, independent of
	// instruction mix.
	CoreW float64
	// InsW, FloatW, CacheW, MemW are event-rate powers (see above).
	InsW, FloatW, CacheW, MemW float64
	// SynW is a nonlinear pipeline×memory interaction (watts per unit of
	// IPC·MemPC product): simultaneously-busy pipelines and memory
	// controllers draw extra power that single-dimension calibration
	// microbenchmarks never exhibit. Power-virus-style workloads
	// (Stress, the GAE virus) sit exactly in this regime.
	SynW float64
	// DiskW and NetW are device powers at 100% device utilization.
	DiskW, NetW float64
	// MeterNoiseSD is the per-sample gaussian noise of this machine's
	// meters, in watts.
	MeterNoiseSD float64
}

// CorePowerW returns the actual power one core draws while running a task
// with the given on-machine activity at the given duty fraction. Duty
// modulation halts the core during non-duty periods, so all activity-driven
// power scales approximately linearly with the duty fraction, matching the
// paper's observation in §3.4.
//
// The pointer receiver keeps the recorder's per-segment call from copying
// the profile.
func (p *TrueProfile) CorePowerW(act cpu.Activity, duty float64) float64 {
	if duty < 0 || duty > 1 {
		panic(dutyError(duty))
	}
	linear := p.CoreW +
		p.InsW*act.IPC +
		p.FloatW*act.FLOPC +
		p.CacheW*act.LLCPC +
		p.MemW*act.MemPC
	synergy := p.SynW * act.IPC * act.MemPC
	return duty * (linear + synergy)
}

// dutyError is the panic value of CorePowerW for a duty fraction outside
// [0, 1]. Panicking with a plain value, formatted only when printed, keeps
// CorePowerW small enough to inline.
type dutyError float64

func (d dutyError) Error() string {
	return fmt.Sprintf("power: duty fraction %g out of range", float64(d))
}

// Profiles returns the hidden ground truth for a machine spec. Values are
// chosen so that whole-machine numbers land in the ranges the paper reports
// (§1, §4.1, Fig. 5) and so that the cross-machine energy-affinity spread of
// Fig. 13 emerges: SandyBridge is far more efficient on compute-bound work,
// while memory-bound work (Stress) narrows the gap because SandyBridge's
// aggressive uncore/memory subsystem draws high power when saturated and
// Woodcrest's stalled cores draw comparatively little extra.
func Profiles(spec cpu.MachineSpec) (TrueProfile, error) {
	switch spec.Name {
	case "SandyBridge":
		// Efficient compute (low per-instruction energy) but a hungry
		// uncore/memory subsystem when saturated.
		return TrueProfile{
			MachineIdleW: 26.1,
			PkgIdleW:     2.3,
			ChipMaintW:   5.4,
			CoreW:        6.5,
			InsW:         1.4,
			FloatW:       1.6,
			CacheW:       130,
			MemW:         700,
			SynW:         1600,
			DiskW:        1.7,
			NetW:         5.8,
			MeterNoiseSD: 0.25,
		}, nil
	case "Westmere":
		// Two low-power six-core chips: modest per-core power, but the
		// largest synergy term — the paper measured its worst model
		// errors (41%) on this machine.
		return TrueProfile{
			MachineIdleW: 94.0,
			PkgIdleW:     5.5,
			ChipMaintW:   7.0,
			CoreW:        2.2,
			InsW:         2.0,
			FloatW:       1.2,
			CacheW:       120,
			MemW:         520,
			SynW:         2600,
			DiskW:        1.7,
			NetW:         5.8,
			MeterNoiseSD: 0.6,
		}, nil
	case "Woodcrest":
		// 2006-era 65 nm parts: very expensive per-instruction
		// switching energy but aggressive clock gating while stalled,
		// so memory-bound work narrows the efficiency gap to newer
		// machines (the Figure 13 spread).
		return TrueProfile{
			MachineIdleW: 155.0,
			PkgIdleW:     14.0,
			ChipMaintW:   8.0,
			CoreW:        3.0,
			InsW:         28.0,
			FloatW:       3.0,
			CacheW:       200,
			MemW:         420,
			SynW:         4000,
			DiskW:        2.4,
			NetW:         6.2,
			MeterNoiseSD: 0.8,
		}, nil
	}
	return TrueProfile{}, fmt.Errorf("power: no ground-truth profile for machine %q", spec.Name)
}

// MustProfile is Profiles for the three built-in machines; it panics on an
// unknown spec and exists for experiment setup code.
func MustProfile(spec cpu.MachineSpec) TrueProfile {
	p, err := Profiles(spec)
	if err != nil {
		panic(err)
	}
	return p
}
