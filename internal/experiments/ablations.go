package experiments

import (
	"fmt"
	"math"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/power"
	"powercontainers/internal/runner"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// AblationResult quantifies the design choices DESIGN.md calls out:
//
//   - the synchronization-free Eq. 3 chip-share estimate vs an oracle with
//     global knowledge of sibling activity;
//   - per-segment socket context tagging vs the naive single-tag scheme the
//     paper warns against (§3.3);
//   - observer-effect compensation (§3.5);
//   - kernel-observable user-level stage transfers (the §3.3 future-work
//     extension) vs the published facility's blindness to them.
type AblationResult struct {
	// ChipShareDeviation is the mean absolute deviation of the system
	// chip-share metric vs the oracle, relative to the oracle's total;
	// ChipShareMaxSum is the estimate's worst instantaneous sum (an
	// exact estimate never exceeds the chip count).
	ChipShareDeviation float64
	ChipShareMaxSum    float64
	// TaggingMisattribution is the mean relative per-request energy
	// error of naive tagging on a pipelined shared connection.
	TaggingMisattribution float64
	// ObserverInflation is the relative instruction-count inflation
	// without compensation.
	ObserverInflation float64
	// UserTransferMisattribution is the mean relative per-request energy
	// error of an event-driven server without transfer trapping.
	UserTransferMisattribution float64
}

// ablationKernel builds a bare SandyBridge kernel, lets configure adjust
// it (nil leaves it as built), and attaches a facility with the offline
// Eq. 2 model under cfg.
func ablationKernel(cfg core.Config, configure func(*kernel.Kernel)) (*kernel.Kernel, *core.Facility, error) {
	eng := sim.NewEngine()
	spec := cpu.SandyBridge
	profile, err := power.Profiles(spec)
	if err != nil {
		return nil, nil, err
	}
	k, err := kernel.New("abl", spec, profile, eng, nil)
	if err != nil {
		return nil, nil, err
	}
	if configure != nil {
		configure(k)
	}
	cal, err := CalibrationFor(spec)
	if err != nil {
		return nil, nil, err
	}
	return k, core.Attach(k, cal.Eq2, cfg), nil
}

// AblationChipShare measures the Eq. 3 estimate against the oracle.
func AblationChipShare(seed uint64) (deviation, maxSum float64, err error) {
	run := func(oracle bool) (*core.Facility, error) {
		k, fac, err := ablationKernel(core.Config{Approach: core.ApproachChipShare, UseOracleChipShare: oracle}, nil)
		if err != nil {
			return nil, err
		}
		rng := sim.NewRand(seed)
		dep := workload.GAE{}.Deploy(k, rng)
		gen := server.NewLoadGen(k, fac, dep)
		gen.RunOpenLoop(0.5*PeakRate(cpu.SandyBridge, dep), 6*sim.Second, rng.Fork(2))
		k.Eng.RunUntil(6 * sim.Second)
		return fac, nil
	}
	approx, err := run(false)
	if err != nil {
		return 0, 0, err
	}
	oracle, err := run(true)
	if err != nil {
		return 0, 0, err
	}
	var dev, ref float64
	n := oracle.Metrics().Len()
	for b := 0; b < n; b++ {
		a, o := approx.Metrics().At(b).Chip, oracle.Metrics().At(b).Chip
		dev += math.Abs(a - o)
		ref += o
		if a > maxSum {
			maxSum = a
		}
	}
	if ref == 0 {
		return 0, 0, fmt.Errorf("ablation: empty chip-share series")
	}
	return dev / ref, maxSum, nil
}

// AblationTagging measures naive-vs-per-segment misattribution on a
// pipelined shared connection (several front workers multiplexing
// fire-and-forget messages to one backend thread).
func AblationTagging(seed uint64) (float64, error) {
	type job struct{ cycles float64 }
	run := func(perSegment bool) ([]float64, error) {
		k, fac, err := ablationKernel(core.Config{Approach: core.ApproachChipShare}, func(k *kernel.Kernel) {
			k.PerSegmentTagging = perSegment
		})
		if err != nil {
			return nil, err
		}
		frontEnd, backEnd := kernel.NewConn()
		server.NewAuxWorker(k, "auditd", backEnd, func(k *kernel.Kernel, t *kernel.Task, payload any, ops []kernel.Op) []kernel.Op {
			return append(ops, kernel.Compute(payload.(job).cycles, workload.ActMySQL))
		})
		entry := kernel.NewListener("front")
		rng := sim.NewRand(seed + 2)
		server.NewEntryPool(k, "front", 8, entry, func(int) server.Handler {
			return func(k *kernel.Kernel, t *kernel.Task, payload any, ops []kernel.Op) []kernel.Op {
				j := payload.(*server.Request).Payload.(job)
				return append(ops,
					kernel.Compute(j.cycles, workload.ActPerl),
					kernel.Send(frontEnd, 512, job{cycles: 4 * j.cycles}),
				)
			}
		})
		dep := &server.Deployment{
			Entry: entry,
			NewRequest: func() *server.Request {
				return &server.Request{Type: "audit", Payload: job{cycles: 2e6 * (1 + 4*rng.Float64())}}
			},
			MeanServiceSec: 0.005,
		}
		gen := server.NewLoadGen(k, fac, dep)
		gen.RunOpenLoop(500, 4*sim.Second, rng.Fork(3))
		k.Eng.RunUntil(5 * sim.Second)
		var out []float64
		for _, r := range gen.Completed() {
			out = append(out, r.Cont.EnergyJ())
		}
		return out, nil
	}
	safe, err := run(true)
	if err != nil {
		return 0, err
	}
	naive, err := run(false)
	if err != nil {
		return 0, err
	}
	n := len(safe)
	if len(naive) < n {
		n = len(naive)
	}
	if n == 0 {
		return 0, fmt.Errorf("ablation: no completed audit requests")
	}
	var sum float64
	for i := 0; i < n; i++ {
		if safe[i] > 0 {
			sum += math.Abs(naive[i]-safe[i]) / safe[i]
		}
	}
	return sum / float64(n), nil
}

// AblationObserver measures the counter inflation compensation removes. Its
// one fixed request draws nothing at random, so it takes no seed.
func AblationObserver() (float64, error) {
	run := func(disable bool) (float64, error) {
		k, fac, err := ablationKernel(core.Config{DisableObserverComp: disable}, nil)
		if err != nil {
			return 0, err
		}
		cont := fac.NewContainer("req")
		k.Spawn("w", kernel.Script(kernel.Compute(3.1e9, cpu.Activity{IPC: 1})), cont)
		k.Eng.Run()
		return cont.Counters.Instructions, nil
	}
	comp, err := run(false)
	if err != nil {
		return 0, err
	}
	raw, err := run(true)
	if err != nil {
		return 0, err
	}
	if comp <= 0 {
		return 0, fmt.Errorf("ablation: no instructions attributed")
	}
	return (raw - comp) / comp, nil
}

// AblationUserTransfers measures event-driven-server misattribution with
// the published (blind) facility vs the trapping extension.
func AblationUserTransfers(seed uint64) (float64, error) {
	run := func(trap bool) ([]float64, error) {
		k, fac, err := ablationKernel(core.Config{Approach: core.ApproachChipShare}, func(k *kernel.Kernel) {
			k.TrapUserTransfers = trap
		})
		if err != nil {
			return nil, err
		}
		rng := sim.NewRand(seed + 5)
		dep := workload.EventServer{PhasesPerRequest: 4}.Deploy(k, rng)
		gen := server.NewLoadGen(k, fac, dep)
		gen.RunOpenLoop(0.9*PeakRate(cpu.SandyBridge, dep), 4*sim.Second, rng.Fork(2))
		k.Eng.RunUntil(5 * sim.Second)
		var out []float64
		for _, r := range gen.Completed() {
			out = append(out, r.Cont.EnergyJ())
		}
		return out, nil
	}
	trapped, err := run(true)
	if err != nil {
		return 0, err
	}
	blind, err := run(false)
	if err != nil {
		return 0, err
	}
	n := len(trapped)
	if len(blind) < n {
		n = len(blind)
	}
	if n == 0 {
		return 0, fmt.Errorf("ablation: no completed event requests")
	}
	var sum float64
	m := 0
	for i := 0; i < n; i++ {
		if trapped[i] > 0 {
			sum += math.Abs(blind[i]-trapped[i]) / trapped[i]
			m++
		}
	}
	return sum / float64(m), nil
}

// ablationCell carries one ablation job's metrics; jobs that produce a
// single metric leave the second field zero.
type ablationCell [2]float64

// AblationsEx runs all four ablations as independent jobs. Each ablation
// builds its own kernels and facilities, so they parallelize cleanly.
func AblationsEx(ex Exec, seed uint64) (*AblationResult, error) {
	plan := &runner.Plan{}
	plan.Add("ablation/chip-share", func() (any, error) {
		dev, maxSum, err := AblationChipShare(seed)
		return ablationCell{dev, maxSum}, err
	})
	plan.Add("ablation/tagging", func() (any, error) {
		mis, err := AblationTagging(seed)
		return ablationCell{mis}, err
	})
	plan.Add("ablation/observer", func() (any, error) {
		inf, err := AblationObserver()
		return ablationCell{inf}, err
	})
	plan.Add("ablation/user-transfers", func() (any, error) {
		mis, err := AblationUserTransfers(seed)
		return ablationCell{mis}, err
	})
	cells, err := runner.Collect[ablationCell](plan, ex.Jobs)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		ChipShareDeviation:         cells[0][0],
		ChipShareMaxSum:            cells[0][1],
		TaggingMisattribution:      cells[1][0],
		ObserverInflation:          cells[2][0],
		UserTransferMisattribution: cells[3][0],
	}, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	t := &Table{
		Title:  "Design-choice ablations",
		Header: []string{"design choice", "metric", "value"},
	}
	t.AddRow("sync-free chip share (Eq. 3) vs oracle", "mean chip-share deviation", fmt.Sprintf("%.3f%%", 100*r.ChipShareDeviation))
	t.AddRow("", "max instantaneous share sum", fmt.Sprintf("%.2f (chips=1)", r.ChipShareMaxSum))
	t.AddRow("per-segment socket tagging vs naive", "per-request energy misattribution", pct(r.TaggingMisattribution))
	t.AddRow("observer-effect compensation off", "instruction-count inflation", pct(r.ObserverInflation))
	t.AddRow("user-level transfers untrapped (§3.3 limit)", "per-request energy misattribution", pct(r.UserTransferMisattribution))
	return t.String()
}
