// Sharded deterministic execution: a cluster run decomposes into a plan
// phase (the dispatcher's decision process alone), one self-contained
// simulation per node, and a seeded merge — so multi-machine experiments
// simulate in parallel yet produce byte-identical results at any worker
// count.
//
// The decomposition is sound because no dispatcher decision depends on
// node *execution*: placement reads only the dispatch history (the
// offered-load estimate is bumped at dispatch time from static per-app
// service demand), the static split plan, and the dispatcher's own random
// stream.
//
// Each node's simulation is interleaving-invariant: machines on a shared
// engine never schedule events for one another, so a machine's events
// keep their relative FIFO order whether or not another machine's events
// interleave between them. Running every node on one engine (the
// reference mode) and running each on its own engine (the sharded mode)
// therefore yield bit-identical per-node results; the regression test in
// internal/experiments pins this. The one exception is nodes that share
// state, such as request factories: fig14 draws both nodes' requests from
// node 0's factories, so it always runs its plan on one shared engine,
// where those draws happen in global arrival order.
package cluster

import (
	"fmt"
	"sort"

	"powercontainers/internal/core"
	"powercontainers/internal/runner"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// PlannedDispatch is one dispatcher decision, replayed identically by
// every execution mode.
type PlannedDispatch struct {
	// At is the request's arrival time at the dispatcher.
	At sim.Time
	// App names the dispatched application.
	App string
	// Node is the chosen machine (0 when Dropped).
	Node int
	// Dropped marks an arrival no node could take.
	Dropped bool
	// Tag is the ledger tag opened for the request; request ids are
	// assigned sequentially in dispatch order, which is what lets the
	// merge phase rebuild the ledger by replay.
	Tag ContainerTag
}

// DispatchPlan is the complete, execution-independent record of a
// dispatcher run: every arrival, placement and ledger open, in dispatch
// order.
type DispatchPlan struct {
	Dispatches []PlannedDispatch
	// PerApp[node][app] counts planned dispatches, for diagnostics.
	PerApp []map[string]int
}

// PlanOpenLoop runs the dispatcher's decision process alone — Poisson
// arrivals and placement on a private engine carrying no other events —
// and records every decision. The plan is a pure function of the nodes,
// apps, policy, power targets, rates and random stream.
func PlanOpenLoop(nodes []*Node, apps []*App, policy Policy, powerTargets map[string]float64, rates map[string]float64, until sim.Time, rng *sim.Rand) *DispatchPlan {
	eng := sim.NewEngine()
	d := NewDispatcher(eng, nodes, apps, policy)
	for app, w := range powerTargets {
		d.PowerTargets[app] = w
	}
	d.RunOpenLoop(rates, until, rng)
	eng.RunUntil(until)
	return d.plan
}

// ShardNode is one node's executable half of a sharded run: the engine it
// simulates on (private in sharded mode, shared in the single-engine
// reference mode), its facility for materializing remote containers, and
// the per-app load generators and request factories deployed on it.
type ShardNode struct {
	Eng *sim.Engine
	// Name is the executing machine's name, stamped into response tags.
	Name string
	Fac  *core.Facility
	// Gens and NewRequest are keyed by app name.
	Gens       map[string]*server.LoadGen
	NewRequest map[string]func() *server.Request
}

// ShardedRunConfig configures one plan execution.
type ShardedRunConfig struct {
	Plan  *DispatchPlan
	Nodes []*ShardNode
	// RunUntil is the simulation horizon for every node engine; it must
	// extend past the plan's arrival horizon far enough for in-flight
	// requests to drain.
	RunUntil sim.Time
	// Jobs bounds shard concurrency (runner.Run semantics; 0 = default).
	// Results are byte-identical at any value.
	Jobs int
	// LedgerAudit observes the rebuilt ledger's opens, closes and drops.
	LedgerAudit sim.Observer
}

// CompletedRequest records one finished request and the app and node it
// belonged to. RequestID links the request back to its ledger entry, so
// the dispatcher-side accounting can be reconciled against the executing
// machine's container.
type CompletedRequest struct {
	App       string
	Node      int
	RequestID uint64
	Req       *server.Request
}

// ShardedResult is a merged sharded run.
type ShardedResult struct {
	// Completed holds every finished request in the canonical merge
	// order: (done time, request id). The order is a pure function of
	// per-node outcomes, independent of shard scheduling.
	Completed []CompletedRequest
	// Ledger is the dispatcher-side ledger rebuilt from the plan's opens
	// and the merged response tags.
	Ledger *Ledger
	// PerApp[node][app] counts dispatches, as planned.
	PerApp []map[string]int
}

// ResponseTimes returns mean response time (ms) per app across the
// cluster, folded in the canonical merge order.
func (r *ShardedResult) ResponseTimes() map[string]float64 {
	return meanResponseMs(r.Completed)
}

// RunSharded executes a dispatch plan over the nodes and merges the
// shards. Every node's injections are pre-scheduled at their planned
// arrival times in plan order (the engine's FIFO tie-break keeps
// same-instant injections in dispatch order), each distinct engine runs
// to the horizon on the worker pool, and completions merge by
// (done time, request id) — so the result is byte-identical at any Jobs,
// and identical between per-node engines and a shared one.
func RunSharded(cfg ShardedRunConfig) (*ShardedResult, error) {
	// Rebuild the dispatcher-side ledger by replaying the plan's opens:
	// ids are assigned sequentially in dispatch order, so replay
	// reproduces them exactly.
	l := NewLedger()
	l.Observer = cfg.LedgerAudit
	for _, pd := range cfg.Plan.Dispatches {
		tag := l.Open(pd.App, pd.Tag.PowerTargetW, pd.At)
		if tag.RequestID != pd.Tag.RequestID {
			return nil, fmt.Errorf("cluster: ledger replay id %d != planned %d", tag.RequestID, pd.Tag.RequestID)
		}
		if pd.Dropped {
			if err := l.Drop(tag.RequestID, pd.At); err != nil {
				return nil, err
			}
		}
	}
	// Pre-schedule every planned injection on its node's engine: the
	// executing machine materializes the remote container and applies the
	// propagated power target before the request runs.
	outs := make([][]CompletedRequest, len(cfg.Nodes))
	for _, pd := range cfg.Plan.Dispatches {
		if pd.Dropped {
			continue
		}
		if pd.Node >= len(cfg.Nodes) {
			return nil, fmt.Errorf("cluster: plan targets node %d of %d", pd.Node, len(cfg.Nodes))
		}
		pd := pd
		sn := cfg.Nodes[pd.Node]
		sn.Eng.At(pd.At, func() {
			req := sn.NewRequest[pd.App]()
			req.Cont = sn.Fac.NewContainer(req.Type)
			req.Cont.PowerTargetW = pd.Tag.PowerTargetW
			sn.Gens[pd.App].InjectPrepared(req, func(r *server.Request) {
				outs[pd.Node] = append(outs[pd.Node], CompletedRequest{
					App: pd.App, Node: pd.Node, RequestID: pd.Tag.RequestID, Req: r,
				})
			})
		})
	}
	// Drive each distinct engine to the horizon. Shard simulations are
	// fully independent, so they fan out on the runner's worker pool; a
	// shared engine (the single-timeline reference mode) runs once.
	var p runner.Plan
	seen := map[*sim.Engine]bool{}
	for i, sn := range cfg.Nodes {
		if seen[sn.Eng] {
			continue
		}
		seen[sn.Eng] = true
		eng := sn.Eng
		p.Add(fmt.Sprintf("shard/%d/%s", i, sn.Name), func() (any, error) {
			eng.RunUntil(cfg.RunUntil)
			return nil, nil
		})
	}
	if _, err := runner.Run(&p, cfg.Jobs); err != nil {
		return nil, err
	}
	// Seeded merge: order completions by (done time, request id) — a
	// total order, since ids are unique — and fold the response tags
	// into the ledger in that order.
	var merged []CompletedRequest
	for _, o := range outs {
		merged = append(merged, o...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Req.Done != merged[j].Req.Done {
			return merged[i].Req.Done < merged[j].Req.Done
		}
		return merged[i].RequestID < merged[j].RequestID
	})
	for _, c := range merged {
		e, ok := l.Entry(c.RequestID)
		if !ok {
			return nil, fmt.Errorf("cluster: completed request %d missing from replayed ledger", c.RequestID)
		}
		if err := l.Close(responseTag(e.Tag, cfg.Nodes[c.Node].Name, c.Req), c.Req.Done); err != nil {
			return nil, err
		}
	}
	return &ShardedResult{Completed: merged, Ledger: l, PerApp: cfg.Plan.PerApp}, nil
}

// meanResponseMs averages response times (ms) per app over completed
// requests, folding in the given iteration order.
func meanResponseMs(completed []CompletedRequest) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, c := range completed {
		if !c.Req.Finished() {
			continue
		}
		sums[c.App] += float64(c.Req.ResponseTime()) / float64(sim.Millisecond)
		counts[c.App]++
	}
	out := map[string]float64{}
	for name, s := range sums {
		if counts[name] > 0 {
			out[name] = s / float64(counts[name])
		}
	}
	return out
}
