package experiments

import (
	"fmt"

	"powercontainers/internal/cluster"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/runner"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Fig14Policy is one distribution policy's outcome.
type Fig14Policy struct {
	Policy cluster.Policy
	// ActiveW[node] is each machine's measured active power over the
	// window (node 0 = SandyBridge, node 1 = Woodcrest); TotalW is the
	// combined active energy usage rate of Figure 14.
	ActiveW []float64
	TotalW  float64
	// RespMs[app] is the mean response time (Table 1).
	RespMs map[string]float64
	// Dispatched[node][app] counts placements.
	Dispatched []map[string]int
}

// Fig14Result reproduces Figure 14 and Table 1: energy usage rate and mean
// response times of a combined GAE-Vosao + RSA-crypto workload on a
// two-machine heterogeneous cluster under the three distribution policies.
type Fig14Result struct {
	Policies []Fig14Policy
	// AffinityGAE and AffinityRSA are the container-profiled
	// cross-machine energy ratios the workload-aware policy used.
	AffinityGAE, AffinityRSA float64
	// SavingVsSimple and SavingVsMachineAware are the workload-aware
	// policy's combined-energy savings.
	SavingVsSimple       float64
	SavingVsMachineAware float64
}

// fig14Specs returns the cluster machines: the newer SandyBridge first.
func fig14Specs() []cpu.MachineSpec {
	return []cpu.MachineSpec{cpu.SandyBridge, cpu.Woodcrest}
}

// Fig14Ex runs the cluster experiment with explicit execution
// configuration. Profiling fans out one runner job per (app, machine)
// cell; each policy then plans its dispatch and executes the plan on one
// engine both machines share (see fig14Run).
func Fig14Ex(ex Exec, seed uint64) (*Fig14Result, error) {
	// --- Profiling phase: container energy profiles on both machines
	// give each app's cross-machine affinity ratio (§3.4). ---
	energy, err := profileEnergy(ex, "fig14", fig14Specs(), seed)
	if err != nil {
		return nil, err
	}
	affinity := affinityRatios(energy)

	res := &Fig14Result{
		AffinityGAE: affinity["GAE-Vosao"],
		AffinityRSA: affinity["RSA-crypto"],
	}

	// --- Distribution phase. ---
	for _, pol := range []cluster.Policy{cluster.SimpleBalance, cluster.MachineAware, cluster.WorkloadAware} {
		p, err := fig14Run(ex, pol, affinity, seed)
		if err != nil {
			return nil, fmt.Errorf("fig14 %s: %w", pol, err)
		}
		res.Policies = append(res.Policies, *p)
	}
	simple := res.Policies[0].TotalW
	machine := res.Policies[1].TotalW
	aware := res.Policies[2].TotalW
	if simple > 0 {
		res.SavingVsSimple = 1 - aware/simple
	}
	if machine > 0 {
		res.SavingVsMachineAware = 1 - aware/machine
	}
	return res, nil
}

// fig14Run executes one policy over the two-machine cluster through the
// plan/shard/merge pipeline, with both machines on one shared engine.
// Request payloads are machine-independent, so both nodes draw requests
// from node 0's factories. Those factories draw from node 0's random
// streams, and only a shared engine makes the draws in global arrival
// order; per-node engines would race on them.
func fig14Run(ex Exec, pol cluster.Policy, affinity map[string]float64, seed uint64) (*Fig14Policy, error) {
	specs := fig14Specs()
	eng := sim.NewEngine()
	rig := newClusterRig(affinity)
	for i, spec := range specs {
		m, err := ex.Assembly.NewMachineOnEngine(eng, spec, core.ApproachChipShare, seed+uint64(i)*17)
		if err != nil {
			return nil, err
		}
		rig.add(m)
	}
	for _, sn := range rig.shards[1:] {
		sn.NewRequest = rig.shards[0].NewRequest
	}

	// Offered volume: the maximum supportable under simple load balance —
	// the Woodcrest machine saturates first at half of each app's volume
	// — with a 50/50 busy-time composition between the two apps, after
	// the capacity its standing background processing consumes.
	wcCores := float64(specs[1].Cores()) * (1 - rig.plan[1].ReservedUtil)
	rates := map[string]float64{}
	for _, app := range rig.apps {
		rates[app.Name] = 1.03 * wcCores / app.SvcSec[1]
	}
	return rig.run(ex, fmt.Sprintf("cluster/%s", pol), pol, rates, sim.NewRand(seed*31),
		30*sim.Second, 5*sim.Second, 25*sim.Second)
}

// clusterApps are the applications the cluster experiments distribute,
// each named by its workload's Name.
var clusterApps = []workload.Workload{workload.GAE{}, workload.RSA{}}

// profileEnergy measures every cluster app's mean per-request energy (J)
// on every machine, energy[app][node]: the container-captured profiles the
// workload-aware policy derives its affinity ratios from (§3.4). Each
// (app, machine) cell is one independent runner job.
func profileEnergy(ex Exec, exp string, specs []cpu.MachineSpec, seed uint64) (map[string][]float64, error) {
	as := ex.Assembly
	var plan runner.Plan
	for _, wl := range clusterApps {
		for _, spec := range specs {
			wl, spec := wl, spec
			plan.Add(fmt.Sprintf("%s/profile/%s/%s", exp, wl.Name(), spec.Name), func() (any, error) {
				r, err := as.Run(spec, core.ApproachRecalibrated, RunSpec{Workload: wl, Load: PeakLoad}, seed)
				if err != nil {
					return nil, err
				}
				var sum float64
				n := 0
				for _, req := range r.Gen.Completed() {
					if req.Finished() && req.Done >= r.T0 && req.Done < r.T1 {
						sum += req.Cont.EnergyJ()
						n++
					}
				}
				if n == 0 {
					return nil, fmt.Errorf("%s profiling: no %s requests on %s", exp, wl.Name(), spec.Name)
				}
				return sum / float64(n), nil
			})
		}
	}
	cells, err := runner.Collect[float64](&plan, ex.Jobs)
	if err != nil {
		return nil, err
	}
	energy := map[string][]float64{}
	for ai, wl := range clusterApps {
		energy[wl.Name()] = cells[ai*len(specs) : (ai+1)*len(specs) : (ai+1)*len(specs)]
	}
	return energy, nil
}

// affinityRatios returns each app's cross-machine energy ratio: node 0's
// per-request energy over the least efficient (last) machine's.
func affinityRatios(energy map[string][]float64) map[string]float64 {
	affinity := map[string]float64{}
	for _, wl := range clusterApps {
		e := energy[wl.Name()]
		affinity[wl.Name()] = e[0] / e[len(e)-1]
	}
	return affinity
}

// clusterRig is one assembled heterogeneous cluster: every machine with
// every cluster app deployed, the plan-only stand-ins the dispatcher
// places against, and the shard nodes that execute the plan.
type clusterRig struct {
	machines []*Machine
	plan     []*cluster.Node
	shards   []*cluster.ShardNode
	apps     []*cluster.App
}

// newClusterRig starts an empty cluster serving every cluster app, with
// the apps' profiled affinity ratios.
func newClusterRig(affinity map[string]float64) *clusterRig {
	rig := &clusterRig{}
	for _, wl := range clusterApps {
		rig.apps = append(rig.apps, &cluster.App{Name: wl.Name(), AffinityRatio: affinity[wl.Name()]})
	}
	return rig
}

// add deploys every cluster app on m and joins it as the next node,
// recording each app's mean service time there (dispatchers know service
// demand from standard monitoring).
func (rig *clusterRig) add(m *Machine) {
	gens := map[string]*server.LoadGen{}
	reqs := map[string]func() *server.Request{}
	for i, app := range rig.apps {
		dep := clusterApps[i].Deploy(m.K, m.Rng.Fork(uint64(len(app.Name))))
		gens[app.Name] = server.NewLoadGen(m.K, m.Fac, dep)
		reqs[app.Name] = dep.NewRequest
		app.SvcSec = append(app.SvcSec, dep.MeanServiceSec)
	}
	// GAE's background processing permanently occupies part of the node;
	// the dispatcher must plan around it.
	spec := m.K.Spec
	reserved := workload.GAEBackgroundCoreDemand(spec) / float64(spec.Cores())
	rig.plan = append(rig.plan, cluster.PlanNode(spec.Cores(), reserved))
	rig.shards = append(rig.shards, &cluster.ShardNode{
		Eng: m.Eng, Name: m.K.Name(), Fac: m.Fac, Gens: gens, NewRequest: reqs,
	})
	rig.machines = append(rig.machines, m)
}

// run plans one policy's open-loop dispatch at the given per-app rates
// until the arrival horizon, executes the plan over the shards (draining
// for 3 s past it), audits the merged ledger, and measures each machine's
// active power over [t0, t1).
func (rig *clusterRig) run(ex Exec, auditName string, pol cluster.Policy, rates map[string]float64,
	rng *sim.Rand, until, t0, t1 sim.Time) (*Fig14Policy, error) {
	dplan := cluster.PlanOpenLoop(rig.plan, rig.apps, pol, nil, rates, until, rng)

	laud := ex.Assembly.collector().newAuditor(auditName)
	var sink sim.Observer
	if laud != nil {
		sink = laud
	}
	horizon := until + 3*sim.Second
	sres, err := cluster.RunSharded(cluster.ShardedRunConfig{
		Plan: dplan, Nodes: rig.shards, RunUntil: horizon, Jobs: ex.Jobs, LedgerAudit: sink,
	})
	if err != nil {
		return nil, err
	}

	for _, m := range rig.machines {
		if err := m.FinalizeAudit(); err != nil {
			return nil, err
		}
	}
	if laud != nil {
		laud.CheckLedger(sres.Ledger, sres.Completed, horizon)
		if err := laud.Err(); err != nil {
			return nil, err
		}
	}

	out := &Fig14Policy{Policy: pol, RespMs: sres.ResponseTimes(), Dispatched: sres.PerApp}
	for _, m := range rig.machines {
		w, err := WattsupActiveMean(m, m.Eng.Now(), t0, t1)
		if err != nil {
			return nil, err
		}
		out.ActiveW = append(out.ActiveW, w)
		out.TotalW += w
	}
	return out, nil
}

// Render prints Figure 14 and Table 1.
func (r *Fig14Result) Render() string {
	t := &Table{
		Title:  "Figure 14: active energy usage rate under three request distribution policies",
		Header: []string{"policy", "SandyBridge", "Woodcrest", "combined"},
		Caption: fmt.Sprintf("workload-aware saves %s vs simple balance and %s vs machine-aware\n"+
			"(paper: 30%% and 25%%); profiled affinity ratios: GAE %.2f, RSA %.2f",
			pct(r.SavingVsSimple), pct(r.SavingVsMachineAware), r.AffinityGAE, r.AffinityRSA),
	}
	for _, p := range r.Policies {
		t.AddRow(p.Policy.String(), w1(p.ActiveW[0]), w1(p.ActiveW[1]), w1(p.TotalW))
	}
	out := t.String()

	t2 := &Table{
		Title:  "Table 1: average request response time under the three policies",
		Header: []string{"policy", "GAE-Vosao", "RSA-crypto"},
		Caption: "paper: simple balance 537/1728 ms, machine-aware 159/66 ms,\n" +
			"workload-aware 131/50 ms",
	}
	for _, p := range r.Policies {
		t2.AddRow(p.Policy.String(),
			fmt.Sprintf("%.0f ms", p.RespMs["GAE-Vosao"]),
			fmt.Sprintf("%.0f ms", p.RespMs["RSA-crypto"]))
	}
	t3 := &Table{
		Title:  "request placement (diagnostic)",
		Header: []string{"policy", "node", "GAE-Vosao", "RSA-crypto"},
	}
	for _, p := range r.Policies {
		for node, counts := range p.Dispatched {
			name := fig14Specs()[node].Name
			t3.AddRow(p.Policy.String(), name,
				fmt.Sprintf("%d", counts["GAE-Vosao"]), fmt.Sprintf("%d", counts["RSA-crypto"]))
		}
	}
	return out + "\n" + t2.String() + "\n" + t3.String()
}
