package kernel

// This file implements the socket layer that request contexts propagate
// through (§3.3). Every buffered message segment carries the sender's
// context tag; a receiver inherits the tag of the segment it actually
// reads. The paper explains why per-segment tagging matters on persistent
// high-throughput connections: with a single per-socket tag, a new
// request's message arriving before the previous message is read would make
// the receiver inherit the wrong context. The kernel supports the naive
// scheme too (PerSegmentTagging=false) as an ablation.

// loseTag strips a segment's container tag, modelling the fault where the
// tagging path misses a transfer (a lost hook, a truncated header). The
// untagged segment flows like any other — its receiver simply binds to the
// background context, exactly as the paper's facility would account an
// untagged kernel path. Kept here so the socket layer owns what "no tag"
// means; injection decisions live behind kernel.FaultSurface.
func loseTag(Context) Context { return nil }

// segment is one buffered message.
type segment struct {
	bytes   int
	ctx     Context
	payload any
	// seq is an observation-only identity for the segment, assigned at
	// enqueue time when an Observer is installed (0 otherwise).
	seq uint64
}

// queue is a FIFO that pops by advancing a head index. A push into a full
// array first moves the live items down when at least half of it is
// consumed, and an emptied queue restarts at the front, so a steady queue
// reuses one array instead of allocating as it drifts forward.
type queue[T any] struct {
	items []T
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

//pclint:hotpath
func (q *queue[T]) push(v T) {
	if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v) //pclint:allow hotalloc first-use growth: the array grows only past the queue's peak length
}

// pop removes the head item; callers must check len first.
//
//pclint:hotpath
func (q *queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop the reference for the collector
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// sockBuf is one direction of a connection: a FIFO of tagged segments plus
// the tasks blocked reading from it.
type sockBuf struct {
	segs    queue[segment]
	lastCtx Context // naive mode: single tag, overwritten by each send
	waiting queue[*Task]
}

// Conn is a bidirectional connection between two endpoints, typically
// persistent across many requests (e.g. an httpd worker's connection to its
// MySQL thread).
type Conn struct {
	ab, ba sockBuf
}

// Endpoint is one side of a Conn.
type Endpoint struct {
	conn *Conn
	side int // 0 = a, 1 = b
}

// Peer returns the opposite endpoint.
func (e *Endpoint) Peer() *Endpoint {
	return &Endpoint{conn: e.conn, side: 1 - e.side}
}

// sendBuf is the buffer this endpoint writes into.
func (e *Endpoint) sendBuf() *sockBuf {
	if e.side == 0 {
		return &e.conn.ab
	}
	return &e.conn.ba
}

// recvBuf is the buffer this endpoint reads from.
func (e *Endpoint) recvBuf() *sockBuf {
	if e.side == 0 {
		return &e.conn.ba
	}
	return &e.conn.ab
}

// Buffered returns the number of unread segments waiting at this endpoint.
func (e *Endpoint) Buffered() int { return e.recvBuf().segs.len() }

// NewConn creates a connection and returns its two endpoints.
func NewConn() (a, b *Endpoint) {
	c := &Conn{}
	return &Endpoint{conn: c, side: 0}, &Endpoint{conn: c, side: 1}
}

// Listener is an external message source: the boundary where client
// requests (or cross-machine hops) enter a machine. Injected messages carry
// the context of the request they belong to.
type Listener struct {
	Name    string
	segs    queue[segment]
	waiting queue[*Task]
}

// NewListener returns a listener with the given diagnostic name.
func NewListener(name string) *Listener { return &Listener{Name: name} }

// Pending returns the number of undelivered messages.
func (l *Listener) Pending() int { return l.segs.len() }

// QueuedWaiters returns the number of tasks blocked on the listener.
func (l *Listener) QueuedWaiters() int { return l.waiting.len() }

// NewPipe creates a unidirectional IPC channel — the pipe/IPC propagation
// path of §3.3 — and returns its read and write ends. Pipes share the
// socket layer's per-segment context tagging: a reader inherits the request
// context of the specific message it consumes.
func NewPipe() (r, w *Endpoint) {
	a, b := NewConn()
	// b writes, a reads: expose only that direction.
	return a, b
}
