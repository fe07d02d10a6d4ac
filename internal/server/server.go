// Package server provides the multi-stage server scaffolding the paper's
// workloads run on: worker pools serving a listener or persistent
// connections, request envelopes that tie a message flow to its power
// container, and open-loop/closed-loop load generation.
package server

import (
	"fmt"

	"powercontainers/internal/core"
	"powercontainers/internal/kernel"
	"powercontainers/internal/sim"
)

// Request is one client request's lifecycle record.
type Request struct {
	// Type is the request class (e.g. "rsa/2048", "vosao/read").
	Type string
	// Client identifies the requesting principal (account, user, app);
	// containers inherit it for client-oriented accounting.
	Client string
	// Payload carries workload-specific parameters to the handlers.
	Payload any
	// Cont is the request's power container.
	Cont *core.Container
	// Arrive and Done bound the request's residence in the server.
	Arrive, Done sim.Time
}

// ResponseTime returns the request's server residence time (0 if unfinished).
func (r *Request) ResponseTime() sim.Time {
	if r.Done <= r.Arrive {
		return 0
	}
	return r.Done - r.Arrive
}

// Finished reports whether the request completed.
func (r *Request) Finished() bool { return r.Done > r.Arrive }

// Envelope is the payload injected into an entry listener: the request plus
// the completion callback installed by the load generator.
type Envelope struct {
	Req  *Request
	Done func(k *kernel.Kernel, t *kernel.Task)
}

// Handler builds the op sequence serving one received message. For entry
// pools the payload is *Envelope; for auxiliary pools it is whatever the
// upstream stage sent.
type Handler func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op

// entryWorker serves an entry listener: receive a request envelope, run the
// handler's ops, signal completion, repeat.
type entryWorker struct {
	l       *kernel.Listener
	handler Handler
	pending []kernel.Op
	waiting bool
}

func (w *entryWorker) Next(k *kernel.Kernel, t *kernel.Task) kernel.Op {
	for {
		if len(w.pending) > 0 {
			op := w.pending[0]
			w.pending = w.pending[1:]
			return op
		}
		if !w.waiting {
			w.waiting = true
			return kernel.OpRecvListener{L: w.l}
		}
		// Recv completed: build the request's ops plus completion.
		w.waiting = false
		env, ok := t.LastRecv.(*Envelope)
		if !ok {
			panic(fmt.Sprintf("server: entry worker %s received %T, want *Envelope", t.Name, t.LastRecv))
		}
		w.pending = w.handler(k, t, env)
		if env.Done != nil {
			w.pending = append(w.pending, kernel.OpCall{Fn: env.Done})
		}
		// Unbind between requests so think-time gaps attribute to
		// background rather than the finished request.
		w.pending = append(w.pending, kernel.OpCall{Fn: func(k *kernel.Kernel, t *kernel.Task) {
			k.Rebind(t, nil)
		}})
	}
}

// auxWorker serves a persistent connection: receive, run handler ops, repeat.
type auxWorker struct {
	end     *kernel.Endpoint
	handler Handler
	pending []kernel.Op
	waiting bool
}

func (w *auxWorker) Next(k *kernel.Kernel, t *kernel.Task) kernel.Op {
	for {
		if len(w.pending) > 0 {
			op := w.pending[0]
			w.pending = w.pending[1:]
			return op
		}
		if !w.waiting {
			w.waiting = true
			return kernel.OpRecv{End: w.end}
		}
		w.waiting = false
		w.pending = w.handler(k, t, t.LastRecv)
	}
}

// NewEntryPool spawns n workers serving the listener. The factory builds
// each worker's handler, letting workers own per-worker state such as a
// persistent connection to a dedicated database thread. The completion
// callback carried in each Envelope runs after the handler ops.
func NewEntryPool(k *kernel.Kernel, name string, n int, l *kernel.Listener, factory func(worker int) Handler) {
	for i := 0; i < n; i++ {
		k.Spawn(name, &entryWorker{l: l, handler: factory(i)}, nil)
	}
}

// NewAuxWorker spawns one worker serving a persistent connection endpoint —
// e.g. the MySQL thread paired with an httpd worker in WeBWorK.
func NewAuxWorker(k *kernel.Kernel, name string, end *kernel.Endpoint, h Handler) *kernel.Task {
	return k.Spawn(name, &auxWorker{end: end, handler: h}, nil)
}

// Deployment is a workload instantiated on a machine: the entry listener
// plus a factory for new requests.
type Deployment struct {
	// Entry receives injected request envelopes.
	Entry *kernel.Listener
	// NewRequest draws the next request's type and payload.
	NewRequest func() *Request
	// MeanServiceSec estimates one request's mean busy time on this
	// machine (all stages), for load planning.
	MeanServiceSec float64
}
