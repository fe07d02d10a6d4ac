// Package cluster implements §3.4's heterogeneity-aware request
// distribution: a dispatcher spreads a mixed workload over machines of
// different generations, using per-request cross-machine energy profiles
// captured by power containers to place each request where its relative
// energy efficiency is high. Request context (the container identity and
// statistics) crosses machines with the tagged dispatch message, as the
// paper propagates containers over socket messages between machines.
//
// A placement reads the energy profiles and the dispatcher's own
// offered-load estimate, never how an earlier request executed, so the
// dispatcher only plans: PlanOpenLoop records every decision, and
// RunSharded (sharded.go) executes the plan on the machines and merges
// their responses into the ledger.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"powercontainers/internal/sim"
)

// Policy selects the request distribution scheme of §4.4.
type Policy int

const (
	// SimpleBalance directs an equal amount of load to every machine,
	// oblivious to heterogeneity.
	SimpleBalance Policy = iota
	// MachineAware loads the most energy-efficient machine to a healthy
	// high utilization (~70%) before spilling to others, but distributes
	// the same request composition everywhere.
	MachineAware
	// WorkloadAware additionally places requests by their cross-machine
	// energy affinity: when the efficient machine nears its cap,
	// requests whose relative efficiency there is low are spilled first.
	WorkloadAware
)

func (p Policy) String() string {
	switch p {
	case SimpleBalance:
		return "simple load balance"
	case MachineAware:
		return "machine heterogeneity-aware"
	case WorkloadAware:
		return "workload heterogeneity-aware"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// App is one application hosted on every node of the cluster.
type App struct {
	Name string
	// SvcSec[node] is the app's mean per-request busy time on each node
	// (dispatchers know service demand from standard monitoring).
	SvcSec []float64
	// AffinityRatio is the cross-machine active energy usage ratio
	// (node0 energy / node1 energy) captured by power containers; lower
	// means node0 is relatively much more efficient for this app.
	// Only the workload-aware policy may consult it.
	AffinityRatio float64
}

// loadTauSec is the decay horizon of the dispatcher's per-node offered-load
// estimate.
const loadTauSec = 1.0

// Node is the dispatcher's view of one machine: its capacity, and the
// offered load placed on it so far.
type Node struct {
	cores int

	// ReservedUtil is the utilization fraction standing system services
	// (e.g. GAE background processing) consume on this node regardless
	// of dispatched load; capacity planning subtracts it.
	ReservedUtil float64

	// loadEWMA tracks recently dispatched busy-seconds with exponential
	// decay; loadEWMA/ (τ·cores) estimates the node's offered
	// utilization.
	loadEWMA    float64
	loadUpdated float64
}

// PlanNode returns a node with the machine's core count and its standing
// reserved utilization, all that placement needs.
func PlanNode(cores int, reservedUtil float64) *Node {
	return &Node{cores: cores, ReservedUtil: reservedUtil}
}

// noteDispatch decays and bumps the node's offered-load estimate.
func (n *Node) noteDispatch(nowSec, svcSec float64) {
	n.decay(nowSec)
	n.loadEWMA += svcSec
}

func (n *Node) decay(nowSec float64) {
	if nowSec > n.loadUpdated {
		n.loadEWMA *= math.Exp(-(nowSec - n.loadUpdated) / loadTauSec)
		n.loadUpdated = nowSec
	}
}

// estUtil estimates the node's offered utilization, including its standing
// reserved load.
func (n *Node) estUtil(nowSec float64) float64 {
	n.decay(nowSec)
	return n.ReservedUtil + n.loadEWMA/(loadTauSec*float64(n.cores))
}

// Dispatcher places requests on nodes under a policy and records every
// decision in its plan. Node 0 must be the most energy-efficient machine.
type Dispatcher struct {
	Eng    *sim.Engine
	Nodes  []*Node
	Apps   []*App
	Policy Policy
	// UtilCap is the healthy utilization bound for the efficient machine
	// (the paper uses ~70%).
	UtilCap float64
	// PowerTargets holds optional per-app request power targets that the
	// dispatcher propagates to executing machines with the dispatch tag.
	PowerTargets map[string]float64

	plan *DispatchPlan
	// splits[app][node] is the placement plan: the probability that a
	// request of the app goes to the node. Computed by SetRates.
	splits map[string][]float64
	rng    *sim.Rand
}

// NewDispatcher assembles a dispatcher with an empty plan.
func NewDispatcher(eng *sim.Engine, nodes []*Node, apps []*App, policy Policy) *Dispatcher {
	d := &Dispatcher{
		Eng: eng, Nodes: nodes, Apps: apps, Policy: policy,
		UtilCap: 0.70, PowerTargets: map[string]float64{}, plan: &DispatchPlan{},
	}
	for range nodes {
		d.plan.PerApp = append(d.plan.PerApp, map[string]int{})
	}
	return d
}

// nowSec returns the dispatcher's wall clock in seconds.
func (d *Dispatcher) nowSec() float64 {
	return float64(d.Eng.Now()) / float64(sim.Second)
}

// SetRates informs the dispatcher of the offered per-app request rates and
// computes the placement plan. Both heterogeneity-aware policies fill the
// efficient machine to the healthy cap before spilling; the workload-aware
// policy additionally fills it in ascending affinity-ratio order, so the
// requests that would waste the most energy on the older machine stay on
// the efficient one (§3.4).
func (d *Dispatcher) SetRates(rates map[string]float64, rng *sim.Rand) {
	d.rng = rng
	d.splits = map[string][]float64{}
	n := len(d.Nodes)
	if n == 0 {
		return
	}
	// demand(a, node) is the fraction of node's cores app a's full volume
	// would keep busy.
	demand := func(a *App, node int) float64 {
		return rates[a.Name] * a.SvcSec[node] / float64(d.Nodes[node].cores)
	}
	switch d.Policy {
	case SimpleBalance:
		for _, a := range d.Apps {
			d.splits[a.Name] = equalSplit(n)
		}

	case MachineAware:
		// Tier filling with the same composition everywhere: every app
		// contributes the same fraction to each tier; each tier up to
		// the last is filled to the cap in efficiency order.
		remainingVolume := 1.0 // fraction of every app's volume unplaced
		for _, a := range d.Apps {
			d.splits[a.Name] = make([]float64, n)
		}
		for node := 0; node < n && remainingVolume > 1e-9; node++ {
			frac := remainingVolume
			if node < n-1 {
				var total float64
				for _, a := range d.Apps {
					total += demand(a, node)
				}
				avail := d.UtilCap - d.Nodes[node].ReservedUtil
				if avail < 0.05 {
					avail = 0.05
				}
				if total > 0 && remainingVolume*total > avail {
					frac = avail / total
				}
			}
			for _, a := range d.Apps {
				d.splits[a.Name][node] = frac
			}
			remainingVolume -= frac
		}

	case WorkloadAware:
		// Tier filling in ascending affinity-ratio order: the apps with
		// the strongest affinity to the efficient tiers claim their
		// capacity first; each subsequent tier absorbs the spill.
		order := append([]*App(nil), d.Apps...)
		sort.Slice(order, func(i, j int) bool {
			return order[i].AffinityRatio < order[j].AffinityRatio
		})
		left := map[string]float64{} // unplaced fraction per app
		for _, a := range d.Apps {
			d.splits[a.Name] = make([]float64, n)
			left[a.Name] = 1
		}
		for node := 0; node < n; node++ {
			capacity := d.UtilCap - d.Nodes[node].ReservedUtil
			if capacity < 0.05 {
				capacity = 0.05
			}
			if node == n-1 {
				capacity = 1e18 // the last tier absorbs everything
			}
			for _, a := range order {
				if left[a.Name] <= 1e-12 {
					continue
				}
				dem := demand(a, node) * left[a.Name]
				share := left[a.Name]
				if dem > 0 && dem > capacity {
					share = left[a.Name] * capacity / dem
				}
				d.splits[a.Name][node] = share
				left[a.Name] -= share
				capacity -= demand(a, node) * share
				if capacity < 0 {
					capacity = 0
				}
			}
		}
	}
	d.rebalance(demand)
}

// rebalance relaxes the healthy-utilization caps when the last tier would
// be driven past saturation while earlier tiers still have headroom:
// keeping every machine responsive takes precedence over the efficiency
// ordering. For the workload-aware policy the volume moved up is the
// lowest-affinity-ratio work on the overloaded tier, preserving as much of
// the placement preference as possible.
func (d *Dispatcher) rebalance(demand func(a *App, node int) float64) {
	n := len(d.Nodes)
	if n < 2 || d.Policy == SimpleBalance {
		return
	}
	const hardCap = 0.92
	util := func(node int) float64 {
		u := d.Nodes[node].ReservedUtil
		for _, a := range d.Apps {
			u += d.splits[a.Name][node] * demand(a, node)
		}
		return u
	}
	order := append([]*App(nil), d.Apps...)
	sort.Slice(order, func(i, j int) bool {
		return order[i].AffinityRatio < order[j].AffinityRatio
	})
	last := n - 1
	for iter := 0; iter < 100; iter++ {
		over := util(last) - hardCap
		if over <= 1e-9 {
			return
		}
		moved := false
		for recv := 0; recv < last && over > 1e-9; recv++ {
			headroom := hardCap - util(recv)
			if headroom <= 1e-9 {
				continue
			}
			for _, a := range order {
				frac := d.splits[a.Name][last]
				if frac <= 1e-12 {
					continue
				}
				dRecv, dLast := demand(a, recv), demand(a, last)
				if dRecv <= 0 || dLast <= 0 {
					continue
				}
				move := frac
				if move*dRecv > headroom {
					move = headroom / dRecv
				}
				if move*dLast > over {
					move = over / dLast
				}
				if move <= 1e-12 {
					continue
				}
				d.splits[a.Name][last] -= move
				d.splits[a.Name][recv] += move
				headroom -= move * dRecv
				over -= move * dLast
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

func equalSplit(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1 / float64(n)
	}
	return s
}

// pick chooses the node for a request of the given app: the planned split,
// with an overload guard that reroutes when the chosen node's offered load
// runs far past saturation while another node has room. The second result
// is false when the node set is empty, so callers degrade to an explicit
// drop instead of panicking.
func (d *Dispatcher) pick(app *App) (int, bool) {
	if len(d.Nodes) == 0 {
		return 0, false
	}
	node := 0
	if split := d.splits[app.Name]; splitTotal(split) > 0 {
		node = d.rng.Pick(split)
	}
	if d.Policy != SimpleBalance && len(d.Nodes) > 1 {
		// Overload guard: if the planned node's offered load runs far
		// past saturation, reroute to the least-loaded node with room.
		now := d.nowSec()
		if d.Nodes[node].estUtil(now) > 1.1 {
			best, bestUtil := node, d.Nodes[node].estUtil(now)
			for i := range d.Nodes {
				if u := d.Nodes[i].estUtil(now); u < bestUtil {
					best, bestUtil = i, u
				}
			}
			if bestUtil < 0.9 {
				node = best
			}
		}
	}
	return node, true
}

func splitTotal(split []float64) float64 {
	var t float64
	for _, v := range split {
		t += v
	}
	return t
}

// Dispatch places one request of the app and records the decision. The
// dispatch tag carries the request identifier and control policy; request
// ids are assigned sequentially in dispatch order, which is what lets
// RunSharded rebuild the ledger by replay. A request no node can take is
// recorded as dropped, keeping the ledger's accounting complete (opened =
// finished + dropped + in flight) instead of losing the request silently.
func (d *Dispatcher) Dispatch(app *App) {
	node, ok := d.pick(app)
	tag := ContainerTag{
		RequestID:    uint64(len(d.plan.Dispatches)) + 1,
		App:          app.Name,
		PowerTargetW: d.PowerTargets[app.Name],
	}
	if ok {
		d.Nodes[node].noteDispatch(d.nowSec(), app.SvcSec[node])
		d.plan.PerApp[node][app.Name]++
	}
	d.plan.Dispatches = append(d.plan.Dispatches, PlannedDispatch{
		At: d.Eng.Now(), App: app.Name, Node: node, Dropped: !ok, Tag: tag,
	})
}

// RunOpenLoop drives Poisson arrivals for every app at the given per-app
// rates until the deadline, planning placements from the rates first.
func (d *Dispatcher) RunOpenLoop(rates map[string]float64, until sim.Time, rng *sim.Rand) {
	d.SetRates(rates, rng.Fork(99))
	for _, app := range d.Apps {
		app := app
		rate, ok := rates[app.Name]
		if !ok || rate <= 0 {
			continue
		}
		meanGap := float64(sim.Second) / rate
		r := rng.Fork(uint64(len(app.Name)) + uint64(app.Name[0]))
		var arrive func()
		arrive = func() {
			if d.Eng.Now() >= until {
				return
			}
			d.Dispatch(app)
			gap := sim.Time(r.ExpFloat64(meanGap))
			if gap < 1 {
				gap = 1
			}
			d.Eng.After(gap, arrive)
		}
		d.Eng.After(sim.Time(r.ExpFloat64(meanGap)), arrive)
	}
}
