package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"powercontainers"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/runner"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// cluster3Machines are the machines cluster3 calibrates and runs on.
var cluster3Machines = []cpu.MachineSpec{cpu.SandyBridge, cpu.Westmere, cpu.Woodcrest}

// cluster3Call runs the cluster3 experiment once and returns the SHA-256
// of its rendering. Untraced calls go through the public API; traced
// calls run the same registry entry through Cluster3Ex, which
// RunExperimentJobs wraps, to read the dispatch counts off the result.
func cluster3Call(seed uint64, jobs int, traced bool) (hash string, requests int64, err error) {
	var out string
	if traced {
		r, err := experiments.Cluster3Ex(experiments.NewRunExec(jobs), seed)
		if err != nil {
			return "", 0, err
		}
		for _, p := range r.Policies {
			for _, node := range p.Dispatched {
				for _, n := range node {
					requests += int64(n)
				}
			}
		}
		out = r.Render()
	} else if out, err = powercontainers.RunExperimentJobs("cluster3", seed, jobs); err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:]), requests, nil
}

// cellErrWindow is the validation window of cluster3's attrib_err_pct.
// cluster3 profiles each cell over 8 s; over so few one-second intervals
// the error moves by about a fifth from seed to seed, so the benchmark
// re-runs the cells over 30 s, where it moves by about a twentieth.
const cellErrWindow = 30 * sim.Second

// cluster3AttribErr re-runs cluster3's six profiling cells (GAE-Vosao
// and RSA-crypto at peak load on each machine, recalibrated, at the
// run's seed) over cellErrWindow and returns the attribution error over
// every cell's one-second intervals, as attributionError defines it.
func cluster3AttribErr(seed uint64, jobs int) (float64, error) {
	type cell struct{ absErr, measured float64 }
	var plan runner.Plan
	for _, wl := range []workload.Workload{workload.GAE{}, workload.RSA{}} {
		for _, spec := range cluster3Machines {
			wl, spec := wl, spec
			plan.Add(fmt.Sprintf("perfbench/cell/%s/%s", wl.Name(), spec.Name), func() (any, error) {
				m, err := experiments.NewMachine(spec, core.ApproachRecalibrated, seed)
				if err != nil {
					return nil, err
				}
				t0 := warmup(m.Fac.Recalibrator().Meter.Interval())
				n := int(cellErrWindow / sim.Second)
				acct := make([]float64, 0, n+1)
				for k := 0; k <= n; k++ {
					m.Eng.At(t0+sim.Time(k)*sim.Second, func() { acct = append(acct, m.Fac.TotalAccountedEnergyJ()) })
				}
				if _, err := experiments.RunOn(m, experiments.RunSpec{Workload: wl, Load: experiments.PeakLoad, Warmup: t0, Window: cellErrWindow}); err != nil {
					return nil, err
				}
				var c cell
				for k := 0; k < n; k++ {
					s := t0 + sim.Time(k)*sim.Second
					meas, err := experiments.WattsupActiveMean(m, m.Eng.Now(), s, s+sim.Second)
					if err != nil {
						return nil, err
					}
					c.absErr += math.Abs(acct[k+1] - acct[k] - meas)
					c.measured += meas
				}
				return c, nil
			})
		}
	}
	cells, err := runner.Collect[cell](&plan, jobs)
	if err != nil {
		return 0, err
	}
	var absErr, measured float64
	for _, c := range cells {
		absErr += c.absErr
		measured += c.measured
	}
	return 100 * absErr / measured, nil
}
