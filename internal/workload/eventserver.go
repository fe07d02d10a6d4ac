package workload

import (
	"powercontainers/internal/kernel"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// EventServer is an event-driven server in the style the paper's request
// tracking explicitly does NOT cover (§3.3): one event-loop task per core
// multiplexes many in-flight requests, switching between them with
// user-level stage transfers that issue no kernel-visible system call.
// Under the published facility the kernel keeps charging whichever request
// last bound through a socket read; with the kernel's TrapUserTransfers
// extension (the paper's future-work idea) each transfer is observed and
// attribution follows the request actually being served.
//
// The workload exists to quantify that limitation and the fix — see
// BenchmarkAblationUserLevelTransfers.
type EventServer struct {
	// PhasesPerRequest is how many interleaved processing phases each
	// request needs (≥1); more phases mean more user-level transfers.
	PhasesPerRequest int
}

// Name implements Workload.
func (EventServer) Name() string { return "EventServer" }

const (
	evPhaseCycles   = 8e6
	evDefaultPhases = 3
)

type evParams struct {
	phases int
	cycles float64
}

// evJob is one in-flight request inside an event loop.
type evJob struct {
	env    *server.Envelope
	left   int
	cycles float64
}

// eventLoop is the event-driven worker: it alternates between accepting new
// requests from the listener and advancing one phase of one queued request,
// announcing each switch with a user-level stage transfer.
type eventLoop struct {
	l       *kernel.Listener
	queue   []*evJob
	pending []kernel.Op
	awaited bool
}

// Next implements kernel.Program.
func (e *eventLoop) Next(k *kernel.Kernel, t *kernel.Task) kernel.Op {
	for {
		if len(e.pending) > 0 {
			op := e.pending[0]
			e.pending = e.pending[1:]
			return op
		}
		if e.awaited {
			// A listener recv just completed: enqueue the new request.
			e.awaited = false
			env, ok := t.LastRecv.(*server.Envelope)
			if ok {
				p := env.Req.Payload.(evParams)
				e.queue = append(e.queue, &evJob{env: env, left: p.phases, cycles: p.cycles})
			}
			continue
		}
		// Prefer to drain newly arrived requests so the multiplexing
		// degree grows under load; block on the listener only when idle.
		if e.l.Pending() > 0 || len(e.queue) == 0 {
			e.awaited = true
			return kernel.OpRecvListener{L: e.l}
		}
		// Advance one phase of the oldest request: a user-level stage
		// transfer followed by its compute slice.
		job := e.queue[0]
		e.queue = e.queue[1:]
		job.left--
		e.pending = append(e.pending,
			kernel.OpUserStage{Ctx: job.env.Req.Cont},
			kernel.OpCompute{BaseCycles: job.cycles, Act: ActSolrSearch},
		)
		if job.left > 0 {
			e.queue = append(e.queue, job)
		} else {
			env := job.env
			e.pending = append(e.pending,
				kernel.OpNet{Bytes: 16 << 10},
				kernel.OpCall{Fn: func(k *kernel.Kernel, t *kernel.Task) {
					if env.Done != nil {
						env.Done(k, t)
					}
				}},
				kernel.OpUserStage{Ctx: nil},
			)
		}
	}
}

// Deploy implements Workload.
func (w EventServer) Deploy(k *kernel.Kernel, rng *sim.Rand) *server.Deployment {
	phases := w.PhasesPerRequest
	if phases <= 0 {
		phases = evDefaultPhases
	}
	entry := kernel.NewListener("events")
	for i := 0; i < k.Spec.Cores(); i++ {
		k.Spawn("eventloop", &eventLoop{l: entry}, nil)
	}
	newRequest := func() *server.Request {
		return &server.Request{
			Type: "event/search",
			Payload: evParams{
				phases: phases,
				cycles: evPhaseCycles * jitter(rng, 0.4),
			},
		}
	}
	return &server.Deployment{
		Entry:          entry,
		NewRequest:     newRequest,
		MeanServiceSec: meanServiceSec(k.Spec, float64(phases)*evPhaseCycles, ActSolrSearch),
	}
}
