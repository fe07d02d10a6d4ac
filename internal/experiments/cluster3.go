package experiments

import (
	"fmt"

	"powercontainers/internal/cluster"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/runner"
	"powercontainers/internal/sim"
)

// Cluster3Result extends the paper's two-machine distribution case study
// (§4.4) to a three-tier heterogeneous cluster — SandyBridge, Westmere and
// Woodcrest — exercising the N-tier placement plan: both aware policies
// fill tiers in efficiency order; the workload-aware one additionally fills
// each tier in ascending affinity-ratio order.
type Cluster3Result struct {
	Policies []Fig14Policy
	// Energy[app][node] is the profiled per-request energy (J) on each
	// node; ratios are vs node 0.
	Energy map[string][]float64
	// Savings of the workload-aware policy.
	SavingVsSimple       float64
	SavingVsMachineAware float64
}

func cluster3Specs() []cpu.MachineSpec {
	return []cpu.MachineSpec{cpu.SandyBridge, cpu.Westmere, cpu.Woodcrest}
}

// Cluster3Ex runs the three-machine distribution experiment with explicit
// execution configuration. Profiling decomposes into one runner job per
// (app, machine) cell; each policy run shards its three machines onto
// per-node engines (cluster.RunSharded), so the whole experiment uses the
// worker pool while rendering byte-identically at any Exec.Jobs.
func Cluster3Ex(ex Exec, seed uint64) (*Cluster3Result, error) {
	energy, err := profileEnergy(ex, "cluster3", cluster3Specs(), seed)
	if err != nil {
		return nil, err
	}
	affinity := affinityRatios(energy)

	res := &Cluster3Result{Energy: energy}
	for _, pol := range []cluster.Policy{cluster.SimpleBalance, cluster.MachineAware, cluster.WorkloadAware} {
		p, err := cluster3Run(ex, pol, affinity, seed, false, 30*sim.Second, 5*sim.Second, 25*sim.Second)
		if err != nil {
			return nil, fmt.Errorf("cluster3 %s: %w", pol, err)
		}
		res.Policies = append(res.Policies, *p)
	}
	if simple := res.Policies[0].TotalW; simple > 0 {
		res.SavingVsSimple = 1 - res.Policies[2].TotalW/simple
	}
	if machine := res.Policies[1].TotalW; machine > 0 {
		res.SavingVsMachineAware = 1 - res.Policies[2].TotalW/machine
	}
	return res, nil
}

// cluster3Run executes one policy over the three-tier cluster through the
// plan/shard/merge pipeline: each machine simulates its share on its own
// engine, or all on one shared engine when singleEngine is set — the
// reference mode the shard-equivalence regression test compares against.
func cluster3Run(ex Exec, pol cluster.Policy, affinity map[string]float64, seed uint64, singleEngine bool, until, t0, t1 sim.Time) (*Fig14Policy, error) {
	specs := cluster3Specs()
	var shared *sim.Engine
	if singleEngine {
		shared = sim.NewEngine()
	}
	rig := newClusterRig(affinity)
	for _, spec := range specs {
		eng := shared
		if eng == nil {
			eng = sim.NewEngine()
		}
		m, err := ex.Assembly.NewMachineOnEngine(eng, spec, core.ApproachChipShare,
			runner.SeedFor(seed, "cluster3/node/"+spec.Name))
		if err != nil {
			return nil, err
		}
		rig.add(m)
	}

	// Offered volume: under simple balance every node takes a third of
	// each app's volume; the slow Woodcrest saturates first.
	wcAvail := float64(specs[2].Cores()) * (1 - rig.plan[2].ReservedUtil)
	rates := map[string]float64{}
	for _, app := range rig.apps {
		rates[app.Name] = 3.0 * 1.03 * wcAvail / app.SvcSec[2]
	}
	return rig.run(ex, fmt.Sprintf("cluster3/%s", pol), pol, rates, sim.NewRand(seed*37), until, t0, t1)
}

// Render prints the three-tier results.
func (r *Cluster3Result) Render() string {
	specs := cluster3Specs()
	t := &Table{
		Title:  "Three-tier cluster (extension): energy usage rate under the three policies",
		Header: []string{"policy", specs[0].Name, specs[1].Name, specs[2].Name, "combined", "GAE ms", "RSA ms"},
		Caption: fmt.Sprintf("workload-aware saves %s vs simple balance and %s vs machine-aware",
			pct(r.SavingVsSimple), pct(r.SavingVsMachineAware)),
	}
	for _, p := range r.Policies {
		t.AddRow(p.Policy.String(), w1(p.ActiveW[0]), w1(p.ActiveW[1]), w1(p.ActiveW[2]), w1(p.TotalW),
			fmt.Sprintf("%.0f", p.RespMs["GAE-Vosao"]), fmt.Sprintf("%.0f", p.RespMs["RSA-crypto"]))
	}
	t2 := &Table{
		Title:  "profiled per-request energy (J)",
		Header: []string{"app", specs[0].Name, specs[1].Name, specs[2].Name},
	}
	for _, app := range SortedKeys(r.Energy) {
		e := r.Energy[app]
		t2.AddRow(app, j2(e[0]), j2(e[1]), j2(e[2]))
	}
	return t.String() + "\n" + t2.String()
}
