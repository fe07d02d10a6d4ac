package server

import (
	"fmt"

	"powercontainers/internal/core"
	"powercontainers/internal/kernel"
	"powercontainers/internal/sim"
)

// requestBytes is the nominal wire size of a request message.
const requestBytes = 600

// LoadGen drives a deployment with client requests, creating a power
// container per request and recording completions.
type LoadGen struct {
	K   *kernel.Kernel
	Fac *core.Facility
	Dep *Deployment

	completed []*Request
	inFlight  int

	// TraceRequests enables request-flow tracing on every container the
	// generator creates (the Figure 4 capture).
	TraceRequests bool

	// PowerTargetFor, when set, assigns a per-request power target (W)
	// by request type at container creation — the request-level control
	// policies of §3.3. Return 0 for no target.
	PowerTargetFor func(reqType string) float64

	// Clients, when set, assigns each request without an explicit
	// Client to a principal drawn from the pool, enabling per-client
	// energy accounting.
	Clients *ClientPool

	// ServiceFor, when set, files each request's container under a
	// hierarchy node by request type: return the tenant and service
	// names, or an empty tenant for a flat container. Requires the
	// facility to have a hierarchy attached when a tenant is returned.
	ServiceFor func(reqType string) (tenant, service string)
}

// NewLoadGen returns a generator for the deployment on the facility's
// machine.
func NewLoadGen(k *kernel.Kernel, fac *core.Facility, dep *Deployment) *LoadGen {
	if fac != nil && fac.K != k {
		panic("server: facility attached to a different kernel")
	}
	return &LoadGen{K: k, Fac: fac, Dep: dep}
}

// Completed returns the finished requests in completion order.
func (g *LoadGen) Completed() []*Request { return g.completed }

// InjectedExternally merges a request completed through another generator
// into this generator's completion records, for unified reporting.
func (g *LoadGen) InjectedExternally(r *Request) { g.completed = append(g.completed, r) }

// InFlight returns the number of injected-but-unfinished requests.
func (g *LoadGen) InFlight() int { return g.inFlight }

// InjectRequest submits one request now and returns it.
func (g *LoadGen) InjectRequest() *Request {
	req := g.Dep.NewRequest()
	return g.InjectPrepared(req, nil)
}

// InjectPrepared submits a pre-built request, calling extraDone (if any)
// after the standard completion bookkeeping.
func (g *LoadGen) InjectPrepared(req *Request, extraDone func(*Request)) *Request {
	if req.Client == "" && g.Clients != nil {
		req.Client = g.Clients.Draw()
	}
	if req.Cont == nil && g.Fac != nil {
		var tenant, service string
		if g.ServiceFor != nil {
			tenant, service = g.ServiceFor(req.Type)
		}
		if tenant != "" {
			req.Cont = g.Fac.NewContainerIn(tenant, service, req.Type)
		} else {
			req.Cont = g.Fac.NewContainer(req.Type)
		}
		req.Cont.Client = req.Client
		if g.TraceRequests {
			req.Cont.EnableTrace()
		}
		if g.PowerTargetFor != nil {
			req.Cont.PowerTargetW = g.PowerTargetFor(req.Type)
		}
	}
	req.Arrive = g.K.Now()
	req.gen, req.then = g, extraDone
	g.inFlight++
	g.K.Inject(g.Dep.Entry, requestBytes, req.Cont, req)
	return req
}

// RunOpenLoop schedules Poisson arrivals at ratePerSec until the given
// virtual time. Call before driving the engine.
func (g *LoadGen) RunOpenLoop(ratePerSec float64, until sim.Time, rng *sim.Rand) {
	if ratePerSec <= 0 {
		panic(fmt.Sprintf("server: non-positive arrival rate %g", ratePerSec))
	}
	meanGapNs := float64(sim.Second) / ratePerSec
	var arrive func()
	arrive = func() {
		if g.K.Now() >= until {
			return
		}
		g.InjectRequest()
		gap := sim.Time(rng.ExpFloat64(meanGapNs))
		if gap < 1 {
			gap = 1
		}
		g.K.Eng.After(gap, arrive)
	}
	g.K.Eng.After(sim.Time(rng.ExpFloat64(meanGapNs)), arrive)
}

// RunClosedLoop keeps `clients` requests outstanding (zero think time)
// until the given virtual time: the paper's "peak load" condition where the
// server stays fully utilized.
func (g *LoadGen) RunClosedLoop(clients int, until sim.Time) {
	if clients <= 0 {
		panic("server: closed loop needs at least one client")
	}
	var next func(*Request)
	next = func(*Request) {
		if g.K.Now() >= until {
			return
		}
		req := g.Dep.NewRequest()
		g.InjectPrepared(req, next)
	}
	for i := 0; i < clients; i++ {
		next(nil)
	}
}

// Throughput returns completed requests per second over [t0, t1).
func (g *LoadGen) Throughput(t0, t1 sim.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	n := 0
	for _, r := range g.completed {
		if r.Done >= t0 && r.Done < t1 {
			n++
		}
	}
	return float64(n) / (float64(t1-t0) / float64(sim.Second))
}
