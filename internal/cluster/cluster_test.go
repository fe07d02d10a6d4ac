package cluster

import (
	"fmt"
	"math"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

var quadSpec = cpu.MachineSpec{
	Name: "Quad", Chips: 1, CoresPerChip: 4, FreqHz: 1e9, DutyLevels: 8,
}

var testProfile = power.TrueProfile{
	MachineIdleW: 40, PkgIdleW: 2, ChipMaintW: 5,
	CoreW: 8, InsW: 2, DiskW: 1.7, NetW: 5.8,
}

// testApps returns the two test apps with the given per-node service
// times: alpha strongly prefers node 0 (ratio 0.2), beta weakly (0.6).
func testApps(svcSec ...float64) []*App {
	return []*App{
		{Name: "alpha", SvcSec: svcSec, AffinityRatio: 0.2},
		{Name: "beta", SvcSec: svcSec, AffinityRatio: 0.6},
	}
}

// planCounts plans an open-loop run over quad-core nodes, one per entry
// of svcSec (every app's service time on that node), and returns the
// per-node, per-app dispatch counts.
func planCounts(policy Policy, svcSec []float64, rates map[string]float64, until sim.Time, seed uint64) []map[string]int {
	var nodes []*Node
	for range svcSec {
		nodes = append(nodes, PlanNode(quadSpec.Cores(), 0))
	}
	return PlanOpenLoop(nodes, testApps(svcSec...), policy, nil, rates, until, sim.NewRand(seed)).PerApp
}

// shardNodes assembles two quad-core machines, each on its own engine,
// serving both test apps with a fixed 4 ms compute burst.
func shardNodes(t *testing.T) []*ShardNode {
	t.Helper()
	var nodes []*ShardNode
	for i := 0; i < 2; i++ {
		eng := sim.NewEngine()
		k, err := kernel.New(fmt.Sprintf("n%d", i), quadSpec, testProfile, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		fac := core.Attach(k, model.Coefficients{Core: 8, Ins: 2, Chip: 5, IncludesChipShare: true},
			core.Config{})
		sn := &ShardNode{Eng: eng, Name: k.Name(), Fac: fac,
			Gens: map[string]*server.LoadGen{}, NewRequest: map[string]func() *server.Request{}}
		for _, name := range []string{"alpha", "beta"} {
			name := name
			entry := kernel.NewListener(name)
			server.NewEntryPool(k, name, 8, entry, func(int) server.Handler {
				return func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op {
					return []kernel.Op{kernel.OpCompute{BaseCycles: 4e6, Act: cpu.Activity{IPC: 1}}}
				}
			})
			dep := &server.Deployment{
				Entry:          entry,
				NewRequest:     func() *server.Request { return &server.Request{Type: name} },
				MeanServiceSec: 0.004,
			}
			sn.Gens[name] = server.NewLoadGen(k, fac, dep)
			sn.NewRequest[name] = dep.NewRequest
		}
		nodes = append(nodes, sn)
	}
	return nodes
}

// runSharded plans a simple-balance open-loop run over the two shard
// nodes until the given arrival horizon and executes it, draining for one
// more second.
func runSharded(t *testing.T, nodes []*ShardNode, powerTargets, rates map[string]float64, until sim.Time, seed uint64) *ShardedResult {
	t.Helper()
	plan := PlanOpenLoop([]*Node{PlanNode(4, 0), PlanNode(4, 0)}, testApps(0.004, 0.004), SimpleBalance,
		powerTargets, rates, until, sim.NewRand(seed))
	res, err := RunSharded(ShardedRunConfig{Plan: plan, Nodes: nodes, RunUntil: until + sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimpleBalanceSplitsEvenly(t *testing.T) {
	counts := planCounts(SimpleBalance, []float64{0.004, 0.004},
		map[string]float64{"alpha": 200, "beta": 200}, 4*sim.Second, 1)
	for _, app := range []string{"alpha", "beta"} {
		n0, n1 := counts[0][app], counts[1][app]
		frac := float64(n0) / float64(n0+n1)
		if math.Abs(frac-0.5) > 0.06 {
			t.Fatalf("%s split %.2f, want ≈0.5", app, frac)
		}
	}
}

func TestMachineAwareFillsEfficientNodeFirst(t *testing.T) {
	// Total demand on node 0: (200+200)×0.004/4 = 0.4 < cap → all on 0.
	counts := planCounts(MachineAware, []float64{0.004, 0.004},
		map[string]float64{"alpha": 200, "beta": 200}, 3*sim.Second, 1)
	if counts[1]["alpha"]+counts[1]["beta"] > (counts[0]["alpha"]+counts[0]["beta"])/20 {
		t.Fatalf("underloaded cluster spilled to node 1: %v", counts)
	}
}

func TestMachineAwareSpillsSameComposition(t *testing.T) {
	// Demand on node 0 = (700+700)×0.004/4 = 1.4 → f = 0.7/1.4 = 0.5.
	counts := planCounts(MachineAware, []float64{0.004, 0.004},
		map[string]float64{"alpha": 700, "beta": 700}, 4*sim.Second, 1)
	for _, app := range []string{"alpha", "beta"} {
		n0, n1 := counts[0][app], counts[1][app]
		frac := float64(n0) / float64(n0+n1)
		if math.Abs(frac-0.5) > 0.08 {
			t.Fatalf("%s node0 fraction %.2f, want ≈0.5 for both apps", app, frac)
		}
	}
}

func TestWorkloadAwareSpillsHighRatioFirst(t *testing.T) {
	// alpha (ratio 0.2) claims node 0 first: its demand 0.7 consumes the
	// whole cap; beta (ratio 0.6) spills entirely.
	counts := planCounts(WorkloadAware, []float64{0.004, 0.004},
		map[string]float64{"alpha": 700, "beta": 700}, 4*sim.Second, 1)
	alphaFrac := float64(counts[0]["alpha"]) / float64(counts[0]["alpha"]+counts[1]["alpha"])
	betaFrac := float64(counts[0]["beta"]) / float64(counts[0]["beta"]+counts[1]["beta"])
	if alphaFrac < 0.9 {
		t.Fatalf("low-ratio app node0 fraction %.2f, want ≈1.0", alphaFrac)
	}
	if betaFrac > 0.15 {
		t.Fatalf("high-ratio app node0 fraction %.2f, want ≈0", betaFrac)
	}
}

func TestResponseTimesPerApp(t *testing.T) {
	res := runSharded(t, shardNodes(t), nil, map[string]float64{"alpha": 50, "beta": 50}, 2*sim.Second, 1)
	rts := res.ResponseTimes()
	for _, app := range []string{"alpha", "beta"} {
		if rts[app] < 3.9 || rts[app] > 20 {
			t.Fatalf("%s mean response %.1f ms, want ≥ service 4 ms and small", app, rts[app])
		}
	}
	if len(res.Completed) == 0 {
		t.Fatal("no completions recorded")
	}
}

func TestOverloadGuardReroutes(t *testing.T) {
	eng := sim.NewEngine()
	apps := testApps(0.004, 0.004)
	d := NewDispatcher(eng, []*Node{PlanNode(4, 0), PlanNode(4, 0)}, apps, MachineAware)
	// The plan believes 100/s (all fits on node 0), but actual arrivals
	// run at 3000/s: the overload guard must shift load to node 1.
	d.SetRates(map[string]float64{"alpha": 100, "beta": 0}, sim.NewRand(1))
	var arrive func()
	n := 0
	arrive = func() {
		if n >= 3000 {
			return
		}
		n++
		d.Dispatch(apps[0])
		eng.After(sim.Millisecond/3, arrive)
	}
	eng.After(1, arrive)
	eng.RunUntil(2 * sim.Second)
	if d.plan.PerApp[1]["alpha"] == 0 {
		t.Fatal("overload guard never rerouted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if SimpleBalance.String() == "" || MachineAware.String() == "" || WorkloadAware.String() == "" {
		t.Fatal("empty policy names")
	}
}

func TestLedgerCrossMachineAccounting(t *testing.T) {
	res := runSharded(t, shardNodes(t), nil, map[string]float64{"alpha": 100, "beta": 100}, 2*sim.Second, 5)

	entries := res.Ledger.Finished()
	if len(entries) < 100 {
		t.Fatalf("ledger finished = %d", len(entries))
	}
	// Response tags carry the executing machine's container stats.
	for _, e := range entries[:20] {
		if e.Tag.Machine == "" {
			t.Fatal("response tag missing machine")
		}
		if e.Tag.EnergyJ <= 0 || e.Tag.CPUTime <= 0 {
			t.Fatalf("response tag missing stats: %+v", e.Tag)
		}
		if e.ResponseTime() <= 0 {
			t.Fatal("ledger response time missing")
		}
	}
	// Ledger totals must equal the sum over the merged completion
	// records (same containers, two views).
	var direct float64
	for _, c := range res.Completed {
		direct += c.Req.Cont.EnergyJ()
	}
	if total := res.Ledger.TotalEnergyJ("", ""); total <= 0 || total > direct+1e-9 || total < direct-1e-9 {
		t.Fatalf("ledger total %.3f J != direct %.3f J", total, direct)
	}
	// Per-app filtering partitions the total.
	a := res.Ledger.TotalEnergyJ("alpha", "")
	bb := res.Ledger.TotalEnergyJ("beta", "")
	if a <= 0 || bb <= 0 || a+bb > direct+1e-9 {
		t.Fatalf("per-app totals %.3f + %.3f vs %.3f", a, bb, direct)
	}
}

func TestPowerTargetPropagatesAcrossMachines(t *testing.T) {
	nodes := shardNodes(t)
	for _, n := range nodes {
		n.Fac.EnableConditioning(1e9) // per-request targets only
	}
	// Throttle alpha remotely; beta runs at full speed.
	res := runSharded(t, nodes, map[string]float64{"alpha": 4}, // below alpha's ~10 W request power
		map[string]float64{"alpha": 50, "beta": 50}, 2*sim.Second, 5)

	var alphaDuty, betaDuty float64
	var na, nb int
	for _, c := range res.Completed {
		duty := c.Req.Cont.MeanDutyFraction()
		if c.App == "alpha" {
			alphaDuty += duty
			na++
		} else {
			betaDuty += duty
			nb++
		}
	}
	if na == 0 || nb == 0 {
		t.Fatal("missing completions")
	}
	if alphaDuty/float64(na) > 0.8 {
		t.Fatalf("alpha not throttled remotely: duty %.2f", alphaDuty/float64(na))
	}
	if betaDuty/float64(nb) < 0.99 {
		t.Fatalf("beta throttled without a target: duty %.2f", betaDuty/float64(nb))
	}
}

func TestThreeTierMachineAwareFillsInOrder(t *testing.T) {
	// Two fast nodes and one slow node (double service time). Demand per
	// fast node: (900+900)×0.004/4 = 1.8 of node0's cores → tier 0 takes
	// 0.7/1.8 ≈ 0.39 of volume, tier 1 the same of the remainder, tier 2
	// the rest.
	counts := planCounts(MachineAware, []float64{0.004, 0.004, 0.008},
		map[string]float64{"alpha": 900, "beta": 900}, 4*sim.Second, 3)
	tot := func(node int) int { return counts[node]["alpha"] + counts[node]["beta"] }
	if tot(0) == 0 || tot(1) == 0 || tot(2) == 0 {
		t.Fatalf("three-tier fill skipped a node: %d/%d/%d", tot(0), tot(1), tot(2))
	}
	// Tier 0 and 1 get similar shares (both capped); tier 2 absorbs the
	// remainder.
	if f := float64(tot(0)) / float64(tot(0)+tot(1)+tot(2)); f < 0.25 || f > 0.55 {
		t.Fatalf("tier-0 share %.2f implausible", f)
	}
}

func TestThreeTierWorkloadAwarePinsLowRatioApp(t *testing.T) {
	// alpha (low ratio) demand = 900×0.004/4 = 0.9 > cap 0.7 of tier 0:
	// alpha fills tier 0 entirely and spills to tier 1; beta is pushed
	// further down the tiers.
	counts := planCounts(WorkloadAware, []float64{0.004, 0.004, 0.008},
		map[string]float64{"alpha": 900, "beta": 900}, 4*sim.Second, 3)
	if counts[0]["beta"] > counts[0]["alpha"]/10 {
		t.Fatalf("tier 0 not reserved for the low-ratio app: %v", counts)
	}
	if counts[2]["beta"] == 0 {
		t.Fatalf("high-ratio app never reached the last tier: %v", counts)
	}
}

// dropSink counts ledger drop events.
type dropSink struct{ drops int }

func (s *dropSink) Observe(e sim.Event) {
	if e.Kind == sim.KindLedgerDrop {
		s.drops++
	}
}

// TestDispatchToleratesEmptyNodeSet: with no node to place on, every
// planned arrival is an explicit drop, and the merged ledger accounts for
// each one instead of losing it (or panicking on a division by the node
// count).
func TestDispatchToleratesEmptyNodeSet(t *testing.T) {
	plan := PlanOpenLoop(nil, testApps(), SimpleBalance, nil,
		map[string]float64{"alpha": 10}, sim.Second, sim.NewRand(1))
	if len(plan.Dispatches) == 0 {
		t.Fatal("no arrivals planned")
	}
	for i, pd := range plan.Dispatches {
		if !pd.Dropped {
			t.Fatalf("dispatch %d placed on node %d of an empty cluster", i, pd.Node)
		}
	}
	sink := &dropSink{}
	res, err := RunSharded(ShardedRunConfig{Plan: plan, RunUntil: sim.Second, LedgerAudit: sink})
	if err != nil {
		t.Fatal(err)
	}
	opened, finished, dropped := res.Ledger.Counts()
	if opened != len(plan.Dispatches) || finished != 0 || dropped != opened {
		t.Fatalf("empty-cluster run: opened=%d finished=%d dropped=%d", opened, finished, dropped)
	}
	if sink.drops != dropped {
		t.Fatalf("drops not audited: %d events for %d drops", sink.drops, dropped)
	}
}
