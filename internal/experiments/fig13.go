package experiments

import (
	"fmt"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/runner"
	"powercontainers/internal/stats"
	"powercontainers/internal/workload"
)

// Fig13Row is one workload's cross-machine energy comparison.
type Fig13Row struct {
	Workload string
	// EnergySB and EnergyWC are mean per-request active energy (J) on
	// SandyBridge and Woodcrest at peak load, from container profiles.
	EnergySB float64
	EnergyWC float64
	// Ratio is EnergySB / EnergyWC — the paper's cross-machine active
	// energy usage ratio (lower = SandyBridge relatively more efficient).
	Ratio float64
}

// Fig13Result reproduces Figure 13: per-workload cross-machine active
// energy usage ratios between the newer SandyBridge and the older
// Woodcrest machine, captured by container energy profiling at peak load.
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13Workloads lists the figure's five workloads.
func Fig13Workloads() []workload.Workload {
	return []workload.Workload{
		workload.RSA{},
		workload.Solr{},
		workload.WeBWorK{},
		workload.Stress{},
		workload.GAE{},
	}
}

// Fig13Ex runs Figure 13 with explicit execution configuration: one job
// per (workload, machine) profiling run, reduced into per-workload ratio
// rows in workload order.
func Fig13Ex(ex Exec, seed uint64) (*Fig13Result, error) {
	wls := Fig13Workloads()
	specs := []cpu.MachineSpec{cpu.SandyBridge, cpu.Woodcrest}
	as := ex.Assembly
	plan := &runner.Plan{}
	for _, wl := range wls {
		for _, spec := range specs {
			key := fmt.Sprintf("fig13/%s/%s", wl.Name(), spec.Name)
			plan.Add(key, func() (any, error) {
				r, err := as.Run(spec, core.ApproachRecalibrated, RunSpec{Workload: wl, Load: PeakLoad}, seed)
				if err != nil {
					return nil, fmt.Errorf("fig13 %s on %s: %w", wl.Name(), spec.Name, err)
				}
				var e stats.Summary
				for _, req := range r.Gen.Completed() {
					if req.Finished() && req.Done >= r.T0 && req.Done < r.T1 {
						e.Observe(req.Cont.EnergyJ())
					}
				}
				if e.Count() == 0 {
					return nil, fmt.Errorf("fig13 %s on %s: no requests", wl.Name(), spec.Name)
				}
				return e.Mean(), nil
			})
		}
	}
	means, err := runner.Collect[float64](plan, ex.Jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{}
	for i, wl := range wls {
		sb, wc := means[2*i], means[2*i+1]
		res.Rows = append(res.Rows, Fig13Row{
			Workload: wl.Name(),
			EnergySB: sb,
			EnergyWC: wc,
			Ratio:    sb / wc,
		})
	}
	return res, nil
}

// Render prints the ratios.
func (r *Fig13Result) Render() string {
	t := &Table{
		Title:  "Figure 13: cross-machine active energy usage ratio (SandyBridge / Woodcrest)",
		Header: []string{"workload", "energy on SandyBridge", "energy on Woodcrest", "ratio"},
		Caption: "paper's ratios range from 0.22 (RSA-crypto) to 0.91 (Stress): compute-bound\n" +
			"work strongly prefers the newer machine, memory-bound work much less so.",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Workload, j2(row.EnergySB), j2(row.EnergyWC), fmt.Sprintf("%.2f", row.Ratio))
	}
	return t.String()
}
