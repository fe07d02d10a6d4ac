package workload

import (
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/sim"
)

// MicroBench is one of the §4.1 calibration microbenchmarks: a
// single-signature workload run at controlled load levels to stress one
// part of the system at a time. The calibration set deliberately exercises
// each model metric in isolation (plus one mixture), which is also why
// offline calibration cannot learn cross-activity synergies.
type MicroBench struct {
	Name string
	Act  cpu.Activity
	// DiskBytes/NetBytes per iteration, for the I/O benchmarks.
	DiskBytes int64
	NetBytes  int64
}

// MicroBenches returns the paper's eight calibration microbenchmarks: raw
// CPU spin, spin with high instruction rate, spin with high floating point,
// high last-level cache access, high memory access, high disk I/O, high
// network I/O, and a mixed-pattern benchmark.
func MicroBenches() []MicroBench {
	return []MicroBench{
		{Name: "cpu-spin", Act: cpu.Activity{IPC: 1.0}},
		{Name: "spin-high-ins", Act: cpu.Activity{IPC: 2.4}},
		{Name: "spin-float", Act: cpu.Activity{IPC: 1.6, FLOPC: 0.9}},
		{Name: "cache-heavy", Act: cpu.Activity{IPC: 0.9, LLCPC: 0.030, MemPC: 0.0002}},
		{Name: "mem-heavy", Act: cpu.Activity{IPC: 0.25, LLCPC: 0.020, MemPC: 0.010}},
		{Name: "disk-io", Act: cpu.Activity{IPC: 0.8, LLCPC: 0.002}, DiskBytes: 2 << 20},
		{Name: "net-io", Act: cpu.Activity{IPC: 0.9, LLCPC: 0.002}, NetBytes: 1 << 20},
		{Name: "mixed", Act: cpu.Activity{IPC: 1.2, FLOPC: 0.2, LLCPC: 0.010, MemPC: 0.0004}},
	}
}

// CalibrationLoadLevels are the paper's calibration load levels (fractions
// of peak load).
var CalibrationLoadLevels = []float64{1.0, 0.75, 0.50, 0.25}

// burstCycles is the compute burst per loop iteration (≈2 ms at 3 GHz).
const burstCycles = 6e6

// SpawnLoop starts `tasks` looping workers running the microbenchmark at
// the given utilization fraction: each iteration computes a burst and then
// sleeps long enough to average the requested load.
func (m MicroBench) SpawnLoop(k *kernel.Kernel, tasks int, util float64) []*kernel.Task {
	if util <= 0 || util > 1 {
		panic("workload: microbenchmark utilization out of (0,1]")
	}
	effCycles, _ := cpu.Execution(k.Spec, burstCycles, m.Act)
	busyNs := effCycles / k.Spec.FreqHz * float64(sim.Second)
	ioNs := float64(0)
	if m.DiskBytes > 0 {
		ioNs += float64(k.Disk.LatencyNs) + float64(m.DiskBytes)/k.Disk.BytesPerSec*float64(sim.Second)
	}
	if m.NetBytes > 0 {
		ioNs += float64(k.Net.LatencyNs) + float64(m.NetBytes)/k.Net.BytesPerSec*float64(sim.Second)
	}
	// Pause so that busy/(busy+io+pause) ≈ util of the CPU; blocking I/O
	// already keeps the core off-CPU, so it counts against the pause.
	pauseNs := busyNs*(1-util)/util - ioNs
	if pauseNs < 0 {
		pauseNs = 0
	}
	pause := sim.Time(pauseNs)

	// Stagger task phases across the loop period. Without this every
	// task bursts and sleeps in lockstep, which makes chip-busy time
	// collinear with utilization and the chip-share coefficient
	// unidentifiable — real calibration runs are never phase-locked.
	period := busyNs + ioNs + pauseNs

	var out []*kernel.Task
	for i := 0; i < tasks; i++ {
		step := 0
		offset := sim.Time(period * float64(i) / float64(tasks))
		prog := kernel.FuncProgram(func(k *kernel.Kernel, t *kernel.Task) kernel.Op {
			if offset > 0 {
				d := offset
				offset = 0
				return kernel.Sleep(d)
			}
			step++
			switch step % 4 {
			case 1:
				return kernel.Compute(burstCycles, m.Act)
			case 2:
				if m.DiskBytes > 0 {
					return kernel.Disk(m.DiskBytes)
				}
			case 3:
				if m.NetBytes > 0 {
					return kernel.Net(m.NetBytes)
				}
			default:
				if pause >= 1 {
					return kernel.Sleep(pause)
				}
			}
			return kernel.Compute(1, m.Act) // filler

		})
		out = append(out, k.Spawn("micro-"+m.Name, prog, nil))
	}
	return out
}
