package sim

// Observer receives the one observation stream every layer emits: engine
// dispatches, socket segments, ground-truth energy records, attribution
// periods, container lifecycle, degradation actions, injected faults,
// cluster ledger activity, streaming violations and durable recovery.
// Each emitting layer holds one Observer field and nil-checks it at every
// call site, so a nil observer — the default — costs one branch; the
// Event itself travels by value and is not allocated to be passed.
// Callbacks run synchronously on the goroutine that emits them.
type Observer interface {
	Observe(e Event)
}

// Kind names what an Event reports. Each kind's doc lists the fields it
// sets beyond Kind; every other field stays zero.
type Kind uint8

const (
	// KindStep fires immediately before the engine runs an event's
	// callback: T0 is the clock before the step, T and Seq identify the
	// event being dispatched.
	KindStep Kind = iota + 1
	// KindSockEnqueue fires when a socket segment enters a buffer, or is
	// handed directly to a waiting receiver. Obj is the buffer (one
	// direction of a connection, or a listener; compared only for
	// identity), Seq the segment's identity, N its bytes, Tag its context
	// tag and T the time.
	KindSockEnqueue
	// KindSockDeliver fires when a receiver consumes a segment, with the
	// fields of KindSockEnqueue. Tag is the segment's own tag, not the
	// one the receiver adopts (which differs under naive tagging).
	KindSockDeliver
	// KindRecord fires for each ground-truth energy record: Name is
	// "core", "observer", "maint" or "device", [T0, T] the interval
	// (T0 == T for a point record) and X the joules added.
	KindRecord
	// KindPeriod fires after one sampling period [T0, T) on a core is
	// attributed: Obj is the *core.Container, Name the bound task, X the
	// period's modeled CPU energy (J), Y its chip-maintenance portion and
	// Z the Eq. 3 chip share used (0 under core-only or an idle period).
	KindPeriod
	// KindDevicePeriod fires when device energy X (J) over [T0, T) is
	// attributed to the *core.Container Obj.
	KindDevicePeriod
	// KindRetain and KindRelease fire at T after the *core.Container Obj
	// gains or drops a task reference.
	KindRetain
	KindRelease
	// KindCounterFix fires at T when the facility repairs a corrupted
	// counter delta on core N: Name is "unwrap" (a wrapped-register delta
	// shifted back up by the modulus) or "extrapolate" (a period too long
	// to unwrap, reconstructed from the previous period's rates).
	KindCounterFix
	// KindBudgetThrottle fires at T when tenant budget enforcement forces
	// a request below its fair duty level: the *core.Container Obj of
	// tenant Name was assigned duty level N.
	KindBudgetThrottle
	// KindRecalReject fires at T per aligned pair robust ingestion
	// rejects: X is its residual deviation from the batch median (W) and
	// Y the threshold it exceeded (W).
	KindRecalReject
	// KindRecalFallback fires at T when a divergent refit is replaced by
	// the offline fit; Detail is the reason.
	KindRecalFallback
	// KindFault fires when an injected fault takes effect at T: Name is
	// the injection site ("meter/<name>", "counter" or "socket"), Class
	// the fault class ("dropout", "spike", "stuck", "jitter", "death",
	// "lost-interrupt", "tag-loss") and Detail optional context.
	KindFault
	// KindLedgerOpen, KindLedgerClose and KindLedgerDrop fire at T when
	// the dispatcher ledger registers, closes or gives up on request Seq.
	// Name, N and X are the tag's executing machine, CPU time and energy
	// (J): the response tag's for a close, the stored tag's otherwise.
	// Flag marks a close or drop of a request that already finished.
	KindLedgerOpen
	KindLedgerClose
	KindLedgerDrop
	// KindStreamViolation fires at T when the streaming engine's live
	// check Name fails; Detail describes the breach.
	KindStreamViolation
	// KindWALTruncate fires when recovery discards a torn WAL tail: Name
	// is the segment path, N the byte offset it was cut to, M the bytes
	// discarded and Detail the reason.
	KindWALTruncate
	// KindRecovery fires once per durable-store open: Name is the resume
	// mode ("fresh", "checkpoint" or "scratch"), N the highest durable
	// record, M the checkpoint tick resumed from (-1 when none) and
	// Detail what recovery found.
	KindRecovery
)

// Event is one observation. It is a plain value with a fixed set of
// fields whose meaning depends on Kind (see each kind's doc).
type Event struct {
	Kind Kind
	Flag bool
	// T is when the observation happened (an interval's end); T0 is an
	// interval's start.
	T, T0   Time
	Seq     uint64
	N, M    int64
	X, Y, Z float64
	// Obj is the observed object and Tag a segment's context tag.
	Obj, Tag            any
	Name, Class, Detail string
}
