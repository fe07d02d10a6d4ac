package audit

// This file implements the online (per-event) checkers: the hook methods
// the host packages call while the simulation runs. All of them are cheap
// constant-time updates; the expensive reconciliation happens once in
// FinalizeMachine.

import (
	"powercontainers/internal/align"
	"powercontainers/internal/cluster"
	"powercontainers/internal/core"
	"powercontainers/internal/faults"
	"powercontainers/internal/kernel"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// Compile-time checks that the Auditor satisfies every hook seam.
var (
	_ sim.Probe         = (*Auditor)(nil)
	_ kernel.AuditSink  = (*Auditor)(nil)
	_ power.AuditSink   = (*Auditor)(nil)
	_ core.AuditHook    = (*Auditor)(nil)
	_ cluster.AuditSink = (*Auditor)(nil)
	_ align.AuditSink   = (*Auditor)(nil)
	_ faults.AuditSink  = (*Auditor)(nil)
)

// ---- sim sanity ----

// OnStep implements sim.Probe: virtual time never moves backwards, and
// simultaneous events dispatch in FIFO (sequence) order.
func (a *Auditor) OnStep(now, at sim.Time, seq uint64) {
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

// OnSockEnqueue implements kernel.AuditSink: a segment enters a buffer
// carrying exactly one context tag.
func (a *Auditor) OnSockEnqueue(buf any, seq uint64, bytes int, ctx kernel.Context) {
	st := a.fifo(buf)
	if _, dup := st.inflight[seq]; dup {
		a.report("socket-tags", a.now(), "segment %d enqueued twice", seq)
		return
	}
	st.inflight[seq] = inflightSeg{ctx: ctx, bytes: bytes}
}

// OnSockDeliver implements kernel.AuditSink: the delivered segment must
// have been enqueued on the same buffer with the same tag and size, and
// per-buffer delivery must be FIFO.
func (a *Auditor) OnSockDeliver(buf any, seq uint64, bytes int, ctx kernel.Context) {
	st := a.fifo(buf)
	seg, ok := st.inflight[seq]
	if !ok {
		a.report("socket-tags", a.now(), "segment %d delivered without matching enqueue", seq)
		return
	}
	delete(st.inflight, seq)
	if seg.ctx != ctx {
		a.report("socket-tags", a.now(), "segment %d tag changed in flight (%v -> %v)",
			seq, seg.ctx, ctx)
	}
	if seg.bytes != bytes {
		a.report("socket-tags", a.now(), "segment %d size changed in flight (%d -> %d)",
			seq, seg.bytes, bytes)
	}
	if seq <= st.lastDelivered {
		a.report("socket-tags", a.now(), "segment %d delivered after %d on the same buffer",
			seq, st.lastDelivered)
	}
	st.lastDelivered = seq
}

// ---- energy attribution & chip-share sanity (§3.2, Eq. 3) ----

// OnPeriod implements core.AuditHook: accumulate the attributed energy on
// the recorder grid and check period-level invariants.
func (a *Auditor) OnPeriod(c *core.Container, task string, start, end sim.Time, energyJ, chipEnergyJ, chipShare float64) {
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

// OnDevicePeriod implements core.AuditHook.
func (a *Auditor) OnDevicePeriod(c *core.Container, start, end sim.Time, energyJ float64) {
	if energyJ < 0 {
		a.report("energy-conservation", end, "negative device energy %.9f J", energyJ)
	}
	if c.Released && c.Kind == core.KindRequest {
		a.report("lifecycle", end, "device attribution to container %d (%s) after final release",
			c.ID, c.Label)
	}
	a.attributed.AddSpread(start, end, energyJ)
}

// ---- counter repair sanity ----

// OnCounterFix implements core.AuditHook: a counter-fault repair
// (wraparound unwrap or lost-interrupt extrapolation) must name a known
// repair kind. The count is exposed for degradation experiments.
func (a *Auditor) OnCounterFix(coreID int, kind string, t sim.Time) {
	if kind != "unwrap" && kind != "extrapolate" {
		a.report("counter-fix", t, "core %d reported unknown counter repair %q", coreID, kind)
	}
	a.counterFixes++
}

// ---- hierarchical budget enforcement ----

// OnBudgetThrottle implements core.AuditHook: enforcement decisions must
// be legal — the throttled container is filed under the named tenant, that
// tenant is registered in the attached hierarchy and actually carries a
// budget, and the assigned duty level is a real throttle (at least the
// floor, below full speed).
func (a *Auditor) OnBudgetThrottle(c *core.Container, tenant string, lvl int, t sim.Time) {
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

// OnRetain implements core.AuditHook: a released request container must
// never gain a reference again.
func (a *Auditor) OnRetain(c *core.Container) {
	st := a.life[c]
	if st == nil {
		st = &lifeState{}
		a.life[c] = st
	}
	// The container's own retain ran first, so a resurrected container
	// is observed here as Released with a positive refcount.
	if c.Released && c.Kind == core.KindRequest {
		a.report("lifecycle", a.now(), "container %d (%s) retained after final release",
			c.ID, c.Label)
	}
	st.retains++
	if c.Refs() < 0 {
		a.report("lifecycle", a.now(), "container %d (%s) refcount %d negative",
			c.ID, c.Label, c.Refs())
	}
}

// OnRelease implements core.AuditHook.
func (a *Auditor) OnRelease(c *core.Container) {
	st := a.life[c]
	if st == nil {
		st = &lifeState{}
		a.life[c] = st
	}
	st.releases++
	if c.Refs() < 0 {
		a.report("lifecycle", a.now(), "container %d (%s) refcount %d negative",
			c.ID, c.Label, c.Refs())
	}
}

// ---- ground-truth recorder stream ----

// OnRecord implements power.AuditSink: ground-truth energy records are
// non-negative and time-ordered; the streamed total is reconciled against
// the recorder series in FinalizeMachine.
func (a *Auditor) OnRecord(kind string, t0, t1 sim.Time, joules float64) {
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
// sight so hooks observed out of order still accumulate.
func (a *Auditor) reqAudit(id uint64) *reqState {
	st := a.reqs[id]
	if st == nil {
		st = &reqState{}
		a.reqs[id] = st
	}
	return st
}

// OnLedgerOpen implements cluster.AuditSink.
func (a *Auditor) OnLedgerOpen(tag cluster.ContainerTag, now sim.Time) {
	if tag.EnergyJ != 0 || tag.CPUTime != 0 {
		a.report("cluster-ledger", now, "request %d opened with non-zero usage", tag.RequestID)
	}
	st := a.reqAudit(tag.RequestID)
	if st.opened {
		a.report("cluster-ledger", now, "request %d opened twice", tag.RequestID)
	}
	st.opened = true
}

// OnLedgerClose implements cluster.AuditSink.
func (a *Auditor) OnLedgerClose(tag cluster.ContainerTag, alreadyFinished bool, now sim.Time) {
	if alreadyFinished {
		a.report("cluster-ledger", now, "request %d closed twice", tag.RequestID)
	}
	if tag.EnergyJ < 0 || tag.CPUTime < 0 {
		a.report("cluster-ledger", now, "request %d closed with negative usage", tag.RequestID)
	}
	if tag.Machine == "" {
		a.report("cluster-ledger", now, "request %d closed without executing machine", tag.RequestID)
	}
	st := a.reqAudit(tag.RequestID)
	if st.dropped {
		a.report("cluster-ledger", now, "request %d closed after being dropped", tag.RequestID)
	}
	st.finished = true
}

// OnLedgerDrop implements cluster.AuditSink: a request may be given up on
// at most once, and never after it already finished.
func (a *Auditor) OnLedgerDrop(tag cluster.ContainerTag, alreadyFinished bool, now sim.Time) {
	st := a.reqAudit(tag.RequestID)
	if alreadyFinished || st.finished {
		a.report("cluster-ledger", now, "request %d dropped after finishing", tag.RequestID)
	}
	if st.dropped {
		a.report("cluster-ledger", now, "request %d dropped twice", tag.RequestID)
	}
	st.dropped = true
}

// ---- degradation actions (recalibration, fault injection) ----

// OnRecalReject implements align.AuditSink: every rejected pair's deviation
// must genuinely exceed its positive threshold.
func (a *Auditor) OnRecalReject(now sim.Time, deviationW, thresholdW float64) {
	if !(thresholdW > 0) {
		a.report("recalibration", now, "outlier rejected against non-positive threshold %g W", thresholdW)
	} else if dev := deviationW; dev < thresholdW && -dev < thresholdW {
		a.report("recalibration", now, "rejected pair deviation %g W within threshold %g W", dev, thresholdW)
	}
	a.recalRejects++
}

// OnRecalFallback implements align.AuditSink.
func (a *Auditor) OnRecalFallback(now sim.Time, reason string) {
	if reason == "" {
		a.report("recalibration", now, "degradation fallback without a reason")
	}
	a.recalFallbacks++
}

// OnFault implements faults.AuditSink: injected faults are counted so
// experiments can reconcile injected-vs-degraded totals; event shape is
// sanity-checked.
func (a *Auditor) OnFault(e faults.Event) {
	if e.Site == "" || e.Kind == "" {
		a.report("fault-injection", e.T, "fault event missing site or kind: %+v", e)
	}
	a.faultEvents++
}
