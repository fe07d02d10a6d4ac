package experiments

import (
	"fmt"

	"powercontainers/internal/align"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/faults"
	"powercontainers/internal/model"
	"powercontainers/internal/runner"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// FaultMatrixCell is one run of the fault matrix: a meter-fault rate with
// the degradation machinery either armed or disabled.
type FaultMatrixCell struct {
	// Rate is the per-sample fault probability driving the injected
	// meter faults (dropout at Rate, ×8 spikes at Rate/2).
	Rate float64
	// Degraded selects whether robust recalibration (MAD outlier
	// rejection + refit sanity gating) was enabled.
	Degraded bool
	// AccountedW is the facility's aggregate profiled request power.
	AccountedW float64
	// Injected counts fault events the plan actually delivered into the
	// meter stream.
	Injected int
	// Rejects counts aligned pairs the robust recalibrator discarded.
	Rejects int
	// Error is the attribution error against the same-configuration
	// fault-free run, filled in during reduction.
	Error float64
}

// FaultMatrixResult reports attribution error versus injected meter-fault
// rate, with and without graceful degradation (robustness extension; the
// paper's recalibration of §3.2 assumes a trustworthy meter).
type FaultMatrixResult struct {
	Cells []FaultMatrixCell
}

// FaultMatrixOptions trims the experiment.
type FaultMatrixOptions struct {
	// Rates are the per-sample fault probabilities; the 0 cell doubles
	// as the fault-free baseline. Default {0, 0.05, 0.10, 0.20}.
	Rates []float64
	// Exec configures parallelism and per-run assembly.
	Exec Exec
}

// faultCounter counts injected faults, forwarding every observation to an
// optional downstream observer (the run's auditor when auditing is
// enabled).
type faultCounter struct {
	n    int
	next sim.Observer
}

func (c *faultCounter) Observe(e sim.Event) {
	if e.Kind == sim.KindFault {
		c.n++
	}
	if c.next != nil {
		c.next.Observe(e)
	}
}

// faultMatrixRun executes one cell: a SandyBridge machine whose on-chip
// meter is wrapped with the cell's fault plan before recalibration is
// wired against it.
func faultMatrixRun(as Assembly, rate float64, degraded bool, seed, planSeed uint64) (FaultMatrixCell, error) {
	if !degraded && rate > 0 {
		// The plain faulted cells run with every defense ablated: their
		// attribution is supposed to diverge from ground truth, so the
		// conservation auditor does not apply (the ablations experiment
		// builds its deliberately-broken machines un-audited for the
		// same reason).
		as = Assembly{Audit: NewAuditCollector(false)}
	}
	m, err := as.NewMachine(cpu.SandyBridge, core.ApproachChipShare, seed)
	if err != nil {
		return FaultMatrixCell{}, err
	}
	counter := &faultCounter{}
	if m.Audit != nil {
		counter.next = m.Audit
	}
	plan := &faults.Plan{
		Seed: planSeed,
		Meter: &faults.MeterFaults{
			DropoutP: rate,
			SpikeP:   rate * 0.5,
			SpikeMag: 8,
		},
		Observer: counter,
	}
	meter := plan.WrapMeter(m.Chip)
	r := m.Fac.EnableRecalibration(meter, model.ScopePackage, m.Calib.Samples, 0)
	// Pin the known chip-meter delivery lag: the paper notes the lag on a
	// given system is unlikely to change dynamically, and estimating it
	// from a spiked sample stream would confound the degradation axis
	// with delay-search error.
	r.SetDelay(sim.Millisecond)
	if degraded {
		r.Robust = align.Robust{Enabled: true}
	}
	res, err := RunOn(m, RunSpec{Workload: workload.Stress{}, Load: HalfLoad})
	if err != nil {
		return FaultMatrixCell{}, err
	}
	return FaultMatrixCell{
		Rate:       rate,
		Degraded:   degraded,
		AccountedW: res.AccountedW,
		Injected:   counter.n,
		Rejects:    r.Rejected(),
	}, nil
}

// faultMatrixPlan decomposes the matrix into one job per (degraded, rate)
// cell. Every cell uses the same machine seed — the workload is identical
// across the grid — while the fault stream is seeded per cell.
func faultMatrixPlan(opt FaultMatrixOptions, seed uint64) *runner.Plan {
	as := opt.Exec.Assembly
	plan := &runner.Plan{}
	for _, degraded := range []bool{false, true} {
		for _, rate := range opt.Rates {
			rate, degraded := rate, degraded
			key := fmt.Sprintf("faultmatrix/p=%g/degraded=%v", rate, degraded)
			plan.Add(key, func() (any, error) {
				cell, err := faultMatrixRun(as, rate, degraded, seed, runner.SeedFor(seed, key))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", key, err)
				}
				return cell, nil
			})
		}
	}
	return plan
}

// FaultMatrix runs the fault grid, fanning independent cells out across
// opt.Exec.Jobs workers, and reduces each cell's attribution error against
// the fault-free cell of the same degradation setting.
func FaultMatrix(opt FaultMatrixOptions, seed uint64) (*FaultMatrixResult, error) {
	if opt.Rates == nil {
		opt.Rates = []float64{0, 0.05, 0.10, 0.20}
	}
	cells, err := runner.Collect[FaultMatrixCell](faultMatrixPlan(opt, seed), opt.Exec.Jobs)
	if err != nil {
		return nil, err
	}
	baseline := map[bool]float64{}
	for _, c := range cells {
		if c.Rate == 0 {
			baseline[c.Degraded] = c.AccountedW
		}
	}
	for i, c := range cells {
		base := baseline[c.Degraded]
		if base <= 0 {
			return nil, fmt.Errorf("faultmatrix: no fault-free baseline for degraded=%v", c.Degraded)
		}
		cells[i].Error = ValidationError(c.AccountedW, base)
	}
	return &FaultMatrixResult{Cells: cells}, nil
}

// Cell returns the (rate, degraded) cell, if present.
func (r *FaultMatrixResult) Cell(rate float64, degraded bool) (FaultMatrixCell, bool) {
	for _, c := range r.Cells {
		if c.Rate == rate && c.Degraded == degraded {
			return c, true
		}
	}
	return FaultMatrixCell{}, false
}

// Render prints attribution error versus fault rate with degradation off
// and on.
func (r *FaultMatrixResult) Render() string {
	t := &Table{
		Title:  "fault matrix: attribution error vs injected meter-fault rate",
		Header: []string{"fault rate", "injected", "error (plain)", "error (degraded)", "rejected pairs"},
		Caption: "error = |aggregate profiled request power - fault-free same-config run| / fault-free\n" +
			"faults: sample dropout at rate p, x8 spikes at p/2; degraded = MAD outlier\n" +
			"rejection + refit sanity gating in the online recalibrator",
	}
	type row struct {
		plain, degraded FaultMatrixCell
	}
	grid := map[float64]*row{}
	var order []float64
	for _, c := range r.Cells {
		g := grid[c.Rate]
		if g == nil {
			g = &row{}
			grid[c.Rate] = g
			order = append(order, c.Rate)
		}
		if c.Degraded {
			g.degraded = c
		} else {
			g.plain = c
		}
	}
	for _, rate := range order {
		g := grid[rate]
		t.AddRow(
			fmt.Sprintf("%.0f%%", 100*rate),
			fmt.Sprintf("%d", g.plain.Injected),
			pct(g.plain.Error),
			pct(g.degraded.Error),
			fmt.Sprintf("%d", g.degraded.Rejects),
		)
	}
	return t.String()
}
