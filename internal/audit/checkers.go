package audit

// This file implements the online (per-event) checkers: Observe routes
// each observation the host packages emit while the simulation runs to
// the check of its kind. All of them are cheap constant-time updates; the
// expensive reconciliation happens once in FinalizeMachine.

import (
	"powercontainers/internal/core"
	"powercontainers/internal/sim"
)

// Observe implements sim.Observer. WAL truncations and recovery
// decisions are legitimate recovery actions, not violations, so they
// pass unjudged.
func (a *Auditor) Observe(e sim.Event) {
	switch e.Kind {
	case sim.KindStep:
		a.checkStep(e.T0, e.T, e.Seq)
	case sim.KindSockEnqueue:
		a.sockEnqueue(e.Obj, e.Seq, int(e.N), e.Tag, e.T)
	case sim.KindSockDeliver:
		a.sockDeliver(e.Obj, e.Seq, int(e.N), e.Tag, e.T)
	case sim.KindRecord:
		a.checkRecord(e.Name, e.T0, e.T, e.X)
	case sim.KindPeriod:
		a.checkPeriod(e.Obj.(*core.Container), e.Name, e.T0, e.T, e.X, e.Y, e.Z)
	case sim.KindDevicePeriod:
		a.checkDevicePeriod(e.Obj.(*core.Container), e.T0, e.T, e.X)
	case sim.KindRetain:
		a.retain(e.Obj.(*core.Container), e.T)
	case sim.KindRelease:
		a.release(e.Obj.(*core.Container), e.T)
	case sim.KindCounterFix:
		// A counter-fault repair must name a known repair kind.
		if e.Name != "unwrap" && e.Name != "extrapolate" {
			a.report("counter-fix", e.T, "core %d reported unknown counter repair %q", e.N, e.Name)
		}
	case sim.KindBudgetThrottle:
		a.checkBudgetThrottle(e.Obj.(*core.Container), e.Name, int(e.N), e.T)
	case sim.KindRecalReject:
		a.checkRecalReject(e.T, e.X, e.Y)
	case sim.KindRecalFallback:
		if e.Detail == "" {
			a.report("recalibration", e.T, "degradation fallback without a reason")
		}
	case sim.KindFault:
		if e.Name == "" || e.Class == "" {
			a.report("fault-injection", e.T, "fault event missing site or kind: {T:%d Site:%s Kind:%s Detail:%s}",
				e.T, e.Name, e.Class, e.Detail)
		}
	case sim.KindLedgerOpen:
		a.ledgerOpen(e.Seq, e.X, e.N, e.T)
	case sim.KindLedgerClose:
		a.ledgerClose(e.Seq, e.Name, e.X, e.N, e.Flag, e.T)
	case sim.KindLedgerDrop:
		a.ledgerDrop(e.Seq, e.Flag, e.T)
	case sim.KindStreamViolation:
		// The streaming engine's own live checks land in the standard
		// violation log, so a streamed run fails Err() like a batch run.
		a.report(e.Name, e.T, "%s", e.Detail)
	}
}

// ---- sim sanity ----

// checkStep: virtual time never moves backwards, and simultaneous events
// dispatch in FIFO (sequence) order.
func (a *Auditor) checkStep(now, at sim.Time, seq uint64) {
	if at < now {
		a.report("sim-order", now, "event at %s dispatched after clock reached %s",
			sim.FormatTime(at), sim.FormatTime(now))
	}
	if at == a.lastAt && seq <= a.lastSeq {
		a.report("sim-order", at, "event seq %d dispatched after seq %d at the same instant",
			seq, a.lastSeq)
	}
	a.lastAt, a.lastSeq = at, seq
}

// ---- socket tag conservation (§3.3) ----

func (a *Auditor) fifo(buf any) *fifoState {
	st := a.fifos[buf]
	if st == nil {
		st = &fifoState{inflight: map[uint64]inflightSeg{}}
		a.fifos[buf] = st
	}
	return st
}

// sockEnqueue: a segment enters a buffer carrying exactly one context tag.
func (a *Auditor) sockEnqueue(buf any, seq uint64, bytes int, ctx any, now sim.Time) {
	st := a.fifo(buf)
	if _, dup := st.inflight[seq]; dup {
		a.report("socket-tags", now, "segment %d enqueued twice", seq)
		return
	}
	st.inflight[seq] = inflightSeg{ctx: ctx, bytes: bytes}
}

// sockDeliver: the delivered segment must have been enqueued on the same
// buffer with the same tag and size, and per-buffer delivery must be FIFO.
func (a *Auditor) sockDeliver(buf any, seq uint64, bytes int, ctx any, now sim.Time) {
	st := a.fifo(buf)
	seg, ok := st.inflight[seq]
	if !ok {
		a.report("socket-tags", now, "segment %d delivered without matching enqueue", seq)
		return
	}
	delete(st.inflight, seq)
	if seg.ctx != ctx {
		a.report("socket-tags", now, "segment %d tag changed in flight (%v -> %v)",
			seq, seg.ctx, ctx)
	}
	if seg.bytes != bytes {
		a.report("socket-tags", now, "segment %d size changed in flight (%d -> %d)",
			seq, seg.bytes, bytes)
	}
	if seq <= st.lastDelivered {
		a.report("socket-tags", now, "segment %d delivered after %d on the same buffer",
			seq, st.lastDelivered)
	}
	st.lastDelivered = seq
}

// ---- energy attribution & chip-share sanity (§3.2, Eq. 3) ----

// checkPeriod accumulates the attributed energy on the recorder grid and
// checks period-level invariants.
func (a *Auditor) checkPeriod(c *core.Container, task string, start, end sim.Time, energyJ, chipEnergyJ, chipShare float64) {
	if end < start {
		a.report("energy-conservation", end, "period end %s before start %s (task %s)",
			sim.FormatTime(end), sim.FormatTime(start), task)
		return
	}
	if energyJ < 0 {
		a.report("energy-conservation", end, "negative period energy %.9f J (task %s)", energyJ, task)
	}
	if chipEnergyJ < 0 || chipEnergyJ > energyJ+1e-12 {
		a.report("energy-conservation", end,
			"chip energy %.9f J outside [0, period energy %.9f J] (task %s)",
			chipEnergyJ, energyJ, task)
	}
	if chipShare < 0 || chipShare > 1+1e-12 {
		a.report("chip-share", end, "Eq. 3 share %.9f outside [0, 1] (task %s)", chipShare, task)
	}
	if c.Released && c.Kind == core.KindRequest {
		a.report("lifecycle", end, "attribution to container %d (%s) after final release",
			c.ID, c.Label)
	}
	a.attributed.AddSpread(start, end, energyJ)
}

// checkDevicePeriod accumulates attributed device energy and checks it
// like a sampling period's.
func (a *Auditor) checkDevicePeriod(c *core.Container, start, end sim.Time, energyJ float64) {
	if energyJ < 0 {
		a.report("energy-conservation", end, "negative device energy %.9f J", energyJ)
	}
	if c.Released && c.Kind == core.KindRequest {
		a.report("lifecycle", end, "device attribution to container %d (%s) after final release",
			c.ID, c.Label)
	}
	a.attributed.AddSpread(start, end, energyJ)
}

// ---- hierarchical budget enforcement ----

// checkBudgetThrottle: enforcement decisions must be legal — the throttled
// container is filed under the named tenant, that tenant is registered in
// the attached hierarchy and actually carries a budget, and the assigned
// duty level is a real throttle (at least the floor, below full speed).
func (a *Auditor) checkBudgetThrottle(c *core.Container, tenant string, lvl int, t sim.Time) {
	if c.Tenant != tenant {
		a.report("budget-enforcement", t, "container %d (%s) of tenant %q throttled as tenant %q",
			c.ID, c.Label, c.Tenant, tenant)
	}
	if lvl < 1 {
		a.report("budget-enforcement", t, "tenant %q assigned illegal duty level %d", tenant, lvl)
	}
	if a.fac != nil {
		h := a.fac.Hierarchy()
		if h == nil {
			a.report("budget-enforcement", t, "budget throttle for tenant %q without a hierarchy", tenant)
		} else if ten, ok := h.FindTenant(tenant); !ok {
			a.report("budget-enforcement", t, "budget throttle for unregistered tenant %q", tenant)
		} else if ten.Budget.IsZero() {
			a.report("budget-enforcement", t, "budget throttle for unbudgeted tenant %q", tenant)
		}
	}
	a.budgetThrottles++
}

// ---- container lifecycle legality (§3.5) ----

// retain: a released request container must never gain a reference again.
func (a *Auditor) retain(c *core.Container, now sim.Time) {
	st := a.life[c]
	if st == nil {
		st = &lifeState{}
		a.life[c] = st
	}
	// The container's own retain ran first, so a resurrected container
	// is observed here as Released with a positive refcount.
	if c.Released && c.Kind == core.KindRequest {
		a.report("lifecycle", now, "container %d (%s) retained after final release",
			c.ID, c.Label)
	}
	st.retains++
	if c.Refs() < 0 {
		a.report("lifecycle", now, "container %d (%s) refcount %d negative",
			c.ID, c.Label, c.Refs())
	}
}

func (a *Auditor) release(c *core.Container, now sim.Time) {
	st := a.life[c]
	if st == nil {
		st = &lifeState{}
		a.life[c] = st
	}
	st.releases++
	if c.Refs() < 0 {
		a.report("lifecycle", now, "container %d (%s) refcount %d negative",
			c.ID, c.Label, c.Refs())
	}
}

// ---- ground-truth recorder stream ----

// checkRecord: ground-truth energy records are non-negative and
// time-ordered; the streamed total is reconciled against the recorder
// series in FinalizeMachine.
func (a *Auditor) checkRecord(kind string, t0, t1 sim.Time, joules float64) {
	if joules < 0 {
		a.report("recorder", t1, "negative %s energy record %.9f J", kind, joules)
		return
	}
	if t1 < t0 {
		a.report("recorder", t1, "%s record interval [%s, %s] reversed",
			kind, sim.FormatTime(t0), sim.FormatTime(t1))
	}
	a.recordedTotal += joules
}

// ---- cluster ledger (§3.4) ----

// reqAudit returns the per-request lifecycle state, creating it on first
// sight so observations out of order still accumulate.
func (a *Auditor) reqAudit(id uint64) *reqState {
	st := a.reqs[id]
	if st == nil {
		st = &reqState{}
		a.reqs[id] = st
	}
	return st
}

// ledgerOpen: a request opens once, with zero usage.
func (a *Auditor) ledgerOpen(id uint64, energyJ float64, cpu sim.Time, now sim.Time) {
	if energyJ != 0 || cpu != 0 {
		a.report("cluster-ledger", now, "request %d opened with non-zero usage", id)
	}
	st := a.reqAudit(id)
	if st.opened {
		a.report("cluster-ledger", now, "request %d opened twice", id)
	}
	st.opened = true
}

// ledgerClose: a request closes once, with non-negative usage, an
// executing machine, and not after it was dropped.
func (a *Auditor) ledgerClose(id uint64, machine string, energyJ float64, cpu sim.Time, alreadyFinished bool, now sim.Time) {
	if alreadyFinished {
		a.report("cluster-ledger", now, "request %d closed twice", id)
	}
	if energyJ < 0 || cpu < 0 {
		a.report("cluster-ledger", now, "request %d closed with negative usage", id)
	}
	if machine == "" {
		a.report("cluster-ledger", now, "request %d closed without executing machine", id)
	}
	st := a.reqAudit(id)
	if st.dropped {
		a.report("cluster-ledger", now, "request %d closed after being dropped", id)
	}
	st.finished = true
}

// ledgerDrop: a request may be given up on at most once, and never after
// it already finished.
func (a *Auditor) ledgerDrop(id uint64, alreadyFinished bool, now sim.Time) {
	st := a.reqAudit(id)
	if alreadyFinished || st.finished {
		a.report("cluster-ledger", now, "request %d dropped after finishing", id)
	}
	if st.dropped {
		a.report("cluster-ledger", now, "request %d dropped twice", id)
	}
	st.dropped = true
}

// ---- degradation actions ----

// checkRecalReject: every rejected pair's deviation must genuinely exceed
// its positive threshold.
func (a *Auditor) checkRecalReject(now sim.Time, deviationW, thresholdW float64) {
	if !(thresholdW > 0) {
		a.report("recalibration", now, "outlier rejected against non-positive threshold %g W", thresholdW)
	} else if dev := deviationW; dev < thresholdW && -dev < thresholdW {
		a.report("recalibration", now, "rejected pair deviation %g W within threshold %g W", dev, thresholdW)
	}
}
