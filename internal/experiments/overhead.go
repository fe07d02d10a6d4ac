package experiments

import (
	"fmt"
	"testing"
	"unsafe"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// OverheadResult reproduces §3.5's overhead assessment by actually
// benchmarking this implementation: the cost of one container maintenance
// operation, of one model recalibration, and of duty-cycle register access,
// plus the observer-effect event counts and the container structure size.
type OverheadResult struct {
	// MaintenanceNsPerOp is the measured cost of one container
	// maintenance operation (paper: ≈0.95 µs, i.e. ≈0.1% overhead at a
	// 1 ms sampling cadence).
	MaintenanceNsPerOp float64
	// OverheadAtOneMs is maintenance cost / 1 ms.
	OverheadAtOneMs float64
	// RecalibrationNsPerFit is the measured least-square refit cost
	// (paper: ≈16 µs).
	RecalibrationNsPerFit float64
	// DutyReadNs and DutyWriteNs are duty-cycle register access costs
	// (paper: ~265 and ~350 cycles, <0.2 µs at 3 GHz).
	DutyReadNs  float64
	DutyWriteNs float64
	// ObserverEvents is the per-operation observer effect the facility
	// compensates (paper: 2948 cycles, 1656 instructions, 16 flops,
	// 3 LLC references, no measurable memory transactions).
	ObserverEvents cpu.Counters
	// ObserverEnergyUJ is the modeled energy of one maintenance
	// operation (paper: ≈10 µJ at 1/4 chip share).
	ObserverEnergyUJ float64
	// ContainerBytes is the container state size (paper: 784 bytes).
	ContainerBytes uintptr
}

// overheadSeed pins the overhead measurement's machine; the experiment
// reports costs, not attribution values, so any fixed seed serves.
//
//pclint:seed
const overheadSeed = 1

// Overhead measures the facility's costs.
func Overhead() (*OverheadResult, error) {
	cal, err := CalibrationFor(cpu.SandyBridge)
	if err != nil {
		return nil, err
	}

	// A running machine with a busy task to sample. It is built without
	// an auditor: the timing loops below charge synthetic sampling
	// periods, so its attribution departs from ground truth by design.
	m, err := Exec{Audit: NewAuditCollector(false)}.NewMachine(cpu.SandyBridge, core.ApproachChipShare, overheadSeed)
	if err != nil {
		return nil, err
	}
	m.K.Spawn("spin", kernel.Script(kernel.Compute(1e12, workload.ActStress)), nil)
	m.Eng.RunUntil(10 * sim.Millisecond)

	res := &OverheadResult{
		ObserverEvents: core.DefaultMaintenanceEvents,
		ContainerBytes: unsafe.Sizeof(core.Container{}),
	}

	act := workload.ActStress
	sample := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Emulate one elapsed 1 ms sampling period, then perform
			// the maintenance operation.
			m.K.Cores[0].AdvanceBusy(sim.Millisecond, act)
			m.Fac.RewindBaseline(0, sim.Millisecond)
			m.Fac.SampleNow(0)
		}
	})
	res.MaintenanceNsPerOp = float64(sample.NsPerOp())
	res.OverheadAtOneMs = res.MaintenanceNsPerOp / float64(sim.Millisecond)

	// Recalibration: a full least-squares fit over a realistic sample set
	// (the calibration block plus 200 samples cycled from it), timing the
	// accumulation and solve of §3.5's refit rather than the cached solve
	// of the incremental window.
	samples := append([]model.CalSample(nil), cal.Samples...)
	for i := 0; i < 200; i++ {
		samples = append(samples, cal.Samples[i%len(cal.Samples)])
	}
	opts := model.FitOptions{
		Scope:            model.ScopeMachine,
		IncludeChipShare: cal.Eq2.IncludesChipShare,
		IdleW:            cal.Eq2.IdleW,
		Base:             cal.Eq2,
	}
	refit := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := model.Fit(samples, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.RecalibrationNsPerFit = float64(refit.NsPerOp())

	c := m.K.Cores[0]
	nsPerOp := func(r testing.BenchmarkResult) float64 {
		if r.N == 0 {
			return 0
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	read := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c.DutyLevel()
		}
	})
	res.DutyReadNs = nsPerOp(read)
	write := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.SetDutyLevel(4 + i%2)
		}
	})
	res.DutyWriteNs = nsPerOp(write)

	// Energy of one maintenance op per the active model at 1/4 chip
	// share, mirroring the paper's estimate.
	ev := res.ObserverEvents
	mtr := model.Metrics{
		Core:  1,
		Ins:   ev.Instructions / ev.Cycles,
		Float: ev.Float / ev.Cycles,
		Cache: ev.Cache / ev.Cycles,
		Mem:   ev.Mem / ev.Cycles,
		Chip:  0.25,
	}
	watts := cal.Eq2.EstimateCPU(mtr)
	res.ObserverEnergyUJ = watts * ev.Cycles / cpu.SandyBridge.FreqHz * 1e6
	return res, nil
}

// Render prints the §3.5 table.
func (r *OverheadResult) Render() string {
	t := &Table{
		Title:  "§3.5 overhead assessment (measured on this implementation)",
		Header: []string{"quantity", "measured", "paper"},
	}
	t.AddRow("container maintenance op", fmt.Sprintf("%.0f ns", r.MaintenanceNsPerOp), "~950 ns")
	t.AddRow("overhead at 1 ms sampling", fmt.Sprintf("%.3f%%", 100*r.OverheadAtOneMs), "~0.1%")
	t.AddRow("model recalibration (least-square fit)", fmt.Sprintf("%.1f us", r.RecalibrationNsPerFit/1e3), "~16 us")
	t.AddRow("duty-cycle register read", fmt.Sprintf("%.1f ns", r.DutyReadNs), "~88 ns (265 cyc @3GHz)")
	t.AddRow("duty-cycle register write", fmt.Sprintf("%.1f ns", r.DutyWriteNs), "~117 ns (350 cyc @3GHz)")
	t.AddRow("observer effect per op", r.ObserverEvents.String(), "2948 cyc, 1656 ins, 16 flop, 3 LLC")
	t.AddRow("maintenance energy per op", fmt.Sprintf("%.1f uJ", r.ObserverEnergyUJ), "~10 uJ")
	t.AddRow("container state size", fmt.Sprintf("%d bytes", r.ContainerBytes), "784 bytes")
	return t.String()
}
