package experiments

import (
	"fmt"
	"strings"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/runner"
	"powercontainers/internal/workload"
)

// EvalWorkloads returns the paper's six evaluation workloads in Figure 5's
// order.
func EvalWorkloads() []workload.Workload {
	return []workload.Workload{
		workload.RSA{},
		workload.Solr{},
		workload.WeBWorK{},
		workload.Stress{},
		workload.GAE{},
		workload.GAE{VirusLoadFraction: 0.5},
	}
}

// WorkloadByName resolves a workload by its Name, ignoring case: one of
// EvalWorkloads, or the event-driven EventServer.
func WorkloadByName(name string) (workload.Workload, error) {
	for _, w := range append(EvalWorkloads(), workload.EventServer{}) {
		if strings.EqualFold(w.Name(), name) {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Fig5Cell is one bar of Figure 5.
type Fig5Cell struct {
	Machine  string
	Workload string
	Load     LoadLevel
	// ActiveW is measured machine active power.
	ActiveW float64
	// Throughput is completed requests/sec over the window.
	Throughput float64
}

// Fig5Result reproduces Figure 5: measured active power of the application
// workloads on the three machines at peak and half load.
type Fig5Result struct {
	Cells []Fig5Cell
}

// Fig5Options trims the experiment for quick runs.
type Fig5Options struct {
	// Machines restricts the machine set (nil = all three).
	Machines []cpu.MachineSpec
	// Workloads restricts the workload set (nil = all six).
	Workloads []workload.Workload
	// Exec configures parallelism and per-run assembly.
	Exec Exec
}

// fig5Plan decomposes the grid into one self-contained job per
// (machine, workload, load) cell; each job owns its machine simulation.
func fig5Plan(opt Fig5Options, seed uint64) *runner.Plan {
	machines := opt.Machines
	if machines == nil {
		machines = cpu.Specs()
	}
	wls := opt.Workloads
	if wls == nil {
		wls = EvalWorkloads()
	}
	plan := &runner.Plan{}
	for _, spec := range machines {
		for _, wl := range wls {
			for _, load := range []LoadLevel{PeakLoad, HalfLoad} {
				key := fmt.Sprintf("fig5/%s/%s/%s", spec.Name, wl.Name(), load)
				plan.Add(key, func() (any, error) {
					r, err := opt.Exec.Run(spec, core.ApproachChipShare, RunSpec{Workload: wl, Load: load}, seed)
					if err != nil {
						return nil, err
					}
					return Fig5Cell{
						Machine:    spec.Name,
						Workload:   wl.Name(),
						Load:       load,
						ActiveW:    r.MeasuredActiveW,
						Throughput: r.Gen.Throughput(r.T0, r.T1),
					}, nil
				})
			}
		}
	}
	return plan
}

// Fig5 measures every (machine, workload, load) combination. Cells are
// independent simulations fanned out across opt.Exec.Jobs workers; the
// result is byte-identical at any worker count.
func Fig5(opt Fig5Options, seed uint64) (*Fig5Result, error) {
	cells, err := runner.Collect[Fig5Cell](fig5Plan(opt, seed), opt.Exec.Jobs)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Cells: cells}, nil
}

// Render prints the figure as text.
func (r *Fig5Result) Render() string {
	t := &Table{
		Title:  "Figure 5: measured active power of application workloads",
		Header: []string{"machine", "workload", "load", "active power", "throughput"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Machine, c.Workload, c.Load.String(), w1(c.ActiveW),
			fmt.Sprintf("%.1f req/s", c.Throughput))
	}
	return t.String()
}
