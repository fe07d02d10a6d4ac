package experiments

import (
	"fmt"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/runner"
	"powercontainers/internal/workload"
)

// Fig8Cell is one bar of Figure 8.
type Fig8Cell struct {
	Machine  string
	Workload string
	Load     LoadLevel
	Approach core.Approach
	// Error is |aggregate profiled request power − measured active| /
	// measured active.
	Error float64
}

// Fig8Result reproduces Figure 8: the accuracy of the three attribution
// approaches — core-level events only (Eq. 1), plus shared chip power
// attribution (Eq. 2), plus measurement-aligned online recalibration —
// validated by summing all request (and background) energy and comparing
// against measured system active power.
type Fig8Result struct {
	Cells []Fig8Cell
	// WorstByApproach[machine][approach] is the worst-case error.
	WorstByApproach map[string]map[core.Approach]float64
}

// Fig8Options trims the experiment.
type Fig8Options struct {
	Machines  []cpu.MachineSpec
	Workloads []workload.Workload
	// Exec configures parallelism and per-run assembly.
	Exec Exec
}

// Approaches lists the three Figure 8 approaches in order.
func Approaches() []core.Approach {
	return []core.Approach{core.ApproachCoreOnly, core.ApproachChipShare, core.ApproachRecalibrated}
}

// fig8Plan decomposes the validation grid into one job per
// (machine, workload, load, approach) cell. The option sets must already
// be resolved to non-nil.
func fig8Plan(opt Fig8Options, seed uint64) *runner.Plan {
	machines := opt.Machines
	wls := opt.Workloads
	plan := &runner.Plan{}
	for _, spec := range machines {
		for _, wl := range wls {
			for _, load := range []LoadLevel{PeakLoad, HalfLoad} {
				for _, ap := range Approaches() {
					key := fmt.Sprintf("fig8/%s/%s/%s/%s", spec.Name, wl.Name(), load, ap)
					plan.Add(key, func() (any, error) {
						r, err := opt.Exec.Run(spec, ap, RunSpec{Workload: wl, Load: load}, seed)
						if err != nil {
							return nil, fmt.Errorf("fig8 %s/%s/%s/%s: %w", spec.Name, wl.Name(), load, ap, err)
						}
						return Fig8Cell{
							Machine: spec.Name, Workload: wl.Name(), Load: load,
							Approach: ap, Error: ValidationError(r.AccountedW, r.MeasuredActiveW),
						}, nil
					})
				}
			}
		}
	}
	return plan
}

// Fig8 runs the full validation grid, fanning the independent cells out
// across opt.Exec.Jobs workers; the reduced result is byte-identical at
// any worker count.
func Fig8(opt Fig8Options, seed uint64) (*Fig8Result, error) {
	if opt.Machines == nil {
		opt.Machines = cpu.Specs()
	}
	if opt.Workloads == nil {
		opt.Workloads = EvalWorkloads()
	}
	cells, err := runner.Collect[Fig8Cell](fig8Plan(opt, seed), opt.Exec.Jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Cells: cells, WorstByApproach: map[string]map[core.Approach]float64{}}
	for _, spec := range opt.Machines {
		res.WorstByApproach[spec.Name] = map[core.Approach]float64{}
	}
	for _, c := range cells {
		if c.Error > res.WorstByApproach[c.Machine][c.Approach] {
			res.WorstByApproach[c.Machine][c.Approach] = c.Error
		}
	}
	return res, nil
}

// Render prints the error grid and the worst-case summary.
func (r *Fig8Result) Render() string {
	t := &Table{
		Title:  "Figure 8: validation error of attribution approaches",
		Header: []string{"machine", "workload", "load", "core-only", "chip-share", "recalibrated"},
		Caption: "error = |aggregate profiled request power - measured system active power|\n" +
			"        / measured system active power",
	}
	type key struct {
		m, w string
		l    LoadLevel
	}
	grid := map[key]map[core.Approach]float64{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Machine, c.Workload, c.Load}
		if grid[k] == nil {
			grid[k] = map[core.Approach]float64{}
			order = append(order, k)
		}
		grid[k][c.Approach] = c.Error
	}
	for _, k := range order {
		t.AddRow(k.m, k.w, k.l.String(),
			pct(grid[k][core.ApproachCoreOnly]),
			pct(grid[k][core.ApproachChipShare]),
			pct(grid[k][core.ApproachRecalibrated]))
	}
	out := t.String()

	t2 := &Table{
		Title:  "worst-case validation error by machine",
		Header: []string{"machine", "core-only", "chip-share", "recalibrated"},
		Caption: "paper: Woodcrest 29%/18%/8%, Westmere 41%/35%/9%, SandyBridge 20%/13%/6%\n" +
			"(each approach strictly improves the worst case)",
	}
	for _, spec := range cpu.Specs() {
		w, ok := r.WorstByApproach[spec.Name]
		if !ok {
			continue
		}
		t2.AddRow(spec.Name,
			pct(w[core.ApproachCoreOnly]),
			pct(w[core.ApproachChipShare]),
			pct(w[core.ApproachRecalibrated]))
	}
	return out + "\n" + t2.String()
}
