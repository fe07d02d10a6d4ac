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

// Request is one client request's lifecycle record. The load generator
// injects the request itself into the entry listener, so entry handlers
// receive it as their payload.
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

	// gen is the generator that injected the request, and then the
	// callback it runs after its completion bookkeeping (nil for none).
	gen  *LoadGen
	then func(*Request)
}

// NewRequestWith returns a request of the given type whose Payload is a
// *P pointing at a copy of p held in the same allocation, so building a
// request costs one allocation instead of two. Handlers assert *P.
func NewRequestWith[P any](typ string, p P) *Request {
	r := &struct {
		req Request
		p   P
	}{p: p}
	r.req = Request{Type: typ, Payload: &r.p}
	return &r.req
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

// Complete records the request's completion at now with the generator that
// injected it, then runs the generator's follow-up callback. Servers call it
// once the request's last op has run; a request no generator injected has
// nothing to record.
func (r *Request) Complete(now sim.Time) {
	g := r.gen
	if g == nil {
		return
	}
	r.Done = now
	g.inFlight--
	g.completed = append(g.completed, r)
	if r.then != nil {
		r.then(r)
	}
}

// Handler appends the ops serving one received message to ops and returns
// the extended slice. For entry pools the payload is the *Request; for
// auxiliary pools it is whatever the upstream stage sent. Workers pass a
// reused buffer, so a handler that appends its ops allocates nothing.
type Handler func(k *kernel.Kernel, t *kernel.Task, payload any, ops []kernel.Op) []kernel.Op

// opBuffer is a worker's reused op list: the handler appends a message's
// ops and the worker hands them out in order.
type opBuffer struct {
	ops  []kernel.Op
	next int
}

// take returns the next pending op, and false once all are handed out; the
// buffer then restarts at the front so the next message reuses its array.
func (b *opBuffer) take() (kernel.Op, bool) {
	if b.next == len(b.ops) {
		b.ops, b.next = b.ops[:0], 0
		return kernel.Op{}, false
	}
	op := b.ops[b.next]
	b.next++
	return op, true
}

// entryWorker serves an entry listener: receive a request, run the
// handler's ops, record the completion, repeat.
type entryWorker struct {
	l       *kernel.Listener
	handler Handler
	pending opBuffer
	req     *Request // the request being served
	waiting bool
}

func (w *entryWorker) Next(k *kernel.Kernel, t *kernel.Task) kernel.Op {
	for {
		if op, ok := w.pending.take(); ok {
			return op
		}
		if req := w.req; req != nil {
			// The request's ops have all run: record the completion,
			// then unbind so think-time gaps attribute to background
			// rather than the finished request.
			w.req = nil
			req.Complete(k.Now())
			k.Rebind(t, nil)
		}
		if !w.waiting {
			w.waiting = true
			return kernel.RecvListener(w.l)
		}
		// Recv completed: build the request's ops.
		w.waiting = false
		req, ok := t.LastRecv.(*Request)
		if !ok {
			panic(fmt.Sprintf("server: entry worker %s received %T, want *Request", t.Name, t.LastRecv))
		}
		w.req = req
		w.pending.ops = w.handler(k, t, req, w.pending.ops)
	}
}

// auxWorker serves a persistent connection: receive, run handler ops, repeat.
type auxWorker struct {
	end     *kernel.Endpoint
	handler Handler
	pending opBuffer
	waiting bool
}

func (w *auxWorker) Next(k *kernel.Kernel, t *kernel.Task) kernel.Op {
	for {
		if op, ok := w.pending.take(); ok {
			return op
		}
		if !w.waiting {
			w.waiting = true
			return kernel.Recv(w.end)
		}
		w.waiting = false
		w.pending.ops = w.handler(k, t, t.LastRecv, w.pending.ops)
	}
}

// NewEntryPool spawns n workers serving the listener. The factory builds
// each worker's handler, letting workers own per-worker state such as a
// persistent connection to a dedicated database thread. Each request's
// completion is recorded after its handler ops.
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
