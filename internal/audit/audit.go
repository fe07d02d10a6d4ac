// Package audit implements runtime invariant checking for the simulated
// power-container facility. An Auditor is a sim.Observer: it attaches to
// a machine through the one observer field each emitting layer exposes
// (the engine, kernel, recorder, facility and recalibrator, plus the
// cluster ledger and the streaming engine where a harness wires them) and
// verifies, while an experiment runs, the properties the paper's
// accountability argument rests on:
//
//  1. Energy conservation (§3.2, Fig. 8): the modeled energy attributed
//     across containers must reconcile with the ground-truth recorder
//     within a stated tolerance, and the attribution stream must equal
//     the container ledger exactly.
//  2. Container lifecycle legality (§3.5): reference counts never go
//     negative, and nothing is attributed to a container after its final
//     release.
//  3. Socket tag conservation (§3.3): every buffered segment carries
//     exactly one context tag and segments deliver in FIFO order.
//  4. Chip-share sanity: Eq. 3 output stays in [0, 1].
//  5. Cluster ledger reconciliation (§3.4): dispatcher-side accounting
//     matches the executing machines' containers.
//  6. Simulation sanity: virtual time is monotone and simultaneous
//     events dispatch in FIFO order.
//
// Observers are nil-checked at every call site, so a detached auditor
// costs nothing. An Auditor serves exactly one machine (or one dispatcher
// ledger) and must only be used from the simulation goroutine.
package audit

import (
	"fmt"
	"math"

	"powercontainers/internal/cluster"
	"powercontainers/internal/core"
	"powercontainers/internal/kernel"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
)

// Tolerances for the aggregate reconciliation checks. They are stated
// bounds, not guesses: the energy model's worst validation error in the
// paper's Figure 8 runs is ~40% (core-only on memory-bound work), so the
// conservation check flags only grosser divergence; the ledger snapshot
// is taken at request completion, before the final partial sampling
// period lands, so small per-request shortfalls are expected.
const (
	// DefaultEnergyTol is the relative tolerance between total modeled
	// attributed energy and the ground-truth recorder.
	DefaultEnergyTol = 0.5
	// DefaultLedgerTol is the relative shortfall tolerated between the
	// dispatcher ledger total and the executing containers' total.
	DefaultLedgerTol = 0.1
	// maxViolations bounds stored diagnostics; further violations are
	// counted but not recorded in detail.
	maxViolations = 64
)

// Violation is one detected invariant breach.
type Violation struct {
	// Check names the invariant ("energy-conservation", "lifecycle",
	// "socket-tags", "chip-share", "cluster-ledger", "sim-order",
	// "recorder").
	Check string
	// T is the virtual time of detection.
	T sim.Time
	// Detail describes the breach.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%s: %s", v.Check, sim.FormatTime(v.T), v.Detail)
}

// lifeState tracks one container's audited reference-count history.
type lifeState struct {
	retains, releases int
}

// reqState is the audited lifecycle of one cluster request.
type reqState struct {
	opened, finished, dropped bool
}

// inflightSeg is one enqueued-but-undelivered socket segment.
type inflightSeg struct {
	ctx   any
	bytes int
}

// fifoState tracks one socket buffer (a connection direction or a
// listener) for tag conservation and FIFO delivery.
type fifoState struct {
	inflight      map[uint64]inflightSeg
	lastDelivered uint64
}

// Auditor observes one machine's (or one ledger's) events and
// accumulates violations. Create one per machine with New, wire it with
// AttachMachine, and collect results with FinalizeMachine.
type Auditor struct {
	// Label names the audited machine or subsystem in diagnostics.
	Label string

	eng *sim.Engine
	k   *kernel.Kernel
	fac *core.Facility

	violations []Violation
	dropped    int
	finalized  bool // FinalizeMachine has run

	// sim sanity
	lastAt  sim.Time
	lastSeq uint64

	// energy conservation
	attributed    *stats.Series // modeled joules per recorder bucket
	recordedTotal float64       // streamed ground-truth joules

	// lifecycle
	life map[*core.Container]*lifeState

	// hierarchy / budget enforcement bookkeeping
	budgetThrottles int

	// cluster ledger per-request lifecycle
	reqs map[uint64]*reqState

	// socket tag conservation
	fifos map[any]*fifoState
}

// New returns an idle auditor.
func New(label string) *Auditor {
	return &Auditor{
		Label:      label,
		attributed: stats.NewSeries(),
		life:       map[*core.Container]*lifeState{},
		fifos:      map[any]*fifoState{},
		reqs:       map[uint64]*reqState{},
	}
}

// AttachMachine makes the auditor the observer of one assembled machine:
// its facility, the facility's active recalibrator, its kernel, its
// ground-truth recorder and — if no observer is installed yet — the shared
// engine. Attach before the simulation starts.
func (a *Auditor) AttachMachine(f *core.Facility) {
	a.fac = f
	a.k = f.K
	a.eng = f.K.Eng
	f.Observer = a
	if r := f.Recalibrator(); r != nil {
		r.Observer = a
	}
	f.K.Observer = a
	f.K.Rec.Observer = a
	if a.eng.Observer() == nil {
		a.eng.SetObserver(a)
	}
}

// report records a violation (bounded; excess violations only counted).
func (a *Auditor) report(check string, t sim.Time, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, Violation{Check: check, T: t, Detail: fmt.Sprintf(format, args...)})
}

// BudgetThrottles returns how many tenant-budget enforcement decisions the
// conditioner reported.
func (a *Auditor) BudgetThrottles() int { return a.budgetThrottles }

// Violations returns every recorded violation.
func (a *Auditor) Violations() []Violation {
	return append([]Violation(nil), a.violations...)
}

// Err summarizes the violations as one error, or nil if the run is clean.
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	msg := fmt.Sprintf("audit[%s]: %d violation(s)", a.Label, len(a.violations)+a.dropped)
	for i, v := range a.violations {
		if i >= 5 {
			msg += "\n  ..."
			break
		}
		msg += "\n  " + v.String()
	}
	return fmt.Errorf("%s", msg)
}

// FinalizeMachine runs the end-of-run checks — energy conservation
// against the ground-truth recorder, attribution-stream/container-ledger
// identity, and lifecycle refcount reconciliation — and returns the
// accumulated violations as one error (nil if clean).
func (a *Auditor) FinalizeMachine() error {
	a.finalized = true
	if a.k == nil {
		return a.Err()
	}
	now := a.eng.Now()
	a.k.Rec.FlushUntil(now)
	recorded := seriesTotal(a.k.Rec.PkgActiveSeries()) + seriesTotal(a.k.Rec.DeviceSeries())
	attributed := seriesTotal(a.attributed)
	ledger := a.fac.TotalAccountedEnergyJ()

	// The attribution stream seen through the hooks must equal the
	// container ledger to float round-off: any attribution path that
	// bypasses the hooks (or double-counts) breaks this identity.
	if !closeRel(attributed, ledger, 1e-6) {
		a.report("energy-conservation", now,
			"attribution stream %.6f J != container ledger %.6f J", attributed, ledger)
	}
	// The streamed ground-truth records must equal the recorder series.
	if !closeRel(a.recordedTotal, recorded, 1e-6) {
		a.report("recorder", now,
			"record stream %.6f J != recorder series %.6f J", a.recordedTotal, recorded)
	}
	// Modeled attribution reconciles with measured ground truth within
	// the stated model tolerance.
	if recorded > 1e-6 {
		rel := math.Abs(attributed-recorded) / recorded
		if rel > DefaultEnergyTol {
			a.report("energy-conservation", now,
				"attributed %.3f J vs ground truth %.3f J (%.1f%% > %.0f%% tolerance)",
				attributed, recorded, 100*rel, 100*DefaultEnergyTol)
		}
	}
	// Per-bucket sanity: attributed energy is never negative.
	for i, v := range a.attributed.Values() {
		if v < -1e-9 {
			a.report("energy-conservation", sim.Time(i)*power.RecorderInterval,
				"negative attributed energy %.9f J in bucket %d", v, i)
			break
		}
	}
	a.checkHierarchy(now)
	// Lifecycle reconciliation: the audited retain/release history must
	// match each container's final refcount, and released containers
	// must have balanced histories.
	for c, st := range a.life {
		if c.Kind == core.KindBackground {
			continue
		}
		if c.Released && st.retains != st.releases {
			a.report("lifecycle", now,
				"container %d (%s) released with %d retains vs %d releases",
				c.ID, c.Label, st.retains, st.releases)
		}
		if !c.Released && st.retains-st.releases != c.Refs() {
			a.report("lifecycle", now,
				"container %d (%s) holds %d refs but audit saw %d",
				c.ID, c.Label, c.Refs(), st.retains-st.releases)
		}
	}
	return a.Err()
}

// Finalized reports whether FinalizeMachine has run, so a harness can
// check that no audited machine skipped its end-of-run checks.
func (a *Auditor) Finalized() bool { return a.finalized }

// checkHierarchy reconciles the tenant→service→request hierarchy, if one
// is attached: at every node the canonical roll-up (containers summed in
// creation order) must match the incrementally charged accumulator within
// 1e-9, services must sum to their tenant, every tenant-tagged container
// must resolve to a registered service, and budget throttles may only hit
// budgeted tenants.
func (a *Auditor) checkHierarchy(now sim.Time) {
	h := a.fac.Hierarchy()
	if h == nil {
		if a.budgetThrottles > 0 {
			a.report("budget-enforcement", now,
				"%d budget throttles reported without a hierarchy", a.budgetThrottles)
		}
		return
	}
	for i := 0; i < h.NumServices(); i++ {
		s := h.ServiceAt(i)
		roll, acc := s.RollUp(), s.Usage()
		if !closeRel(roll.EnergyJ(), acc.EnergyJ(), 1e-9) {
			a.report("hierarchy", now,
				"service %s: Σ requests %.9f J != incremental %.9f J",
				s.Qualified(), roll.EnergyJ(), acc.EnergyJ())
		}
		if !closeRel(roll.ChipEnergyJ, acc.ChipEnergyJ, 1e-9) {
			a.report("hierarchy", now,
				"service %s: Σ request chip energy %.9f J != incremental %.9f J",
				s.Qualified(), roll.ChipEnergyJ, acc.ChipEnergyJ)
		}
		// Busy time is integer virtual time: the sums must agree exactly.
		if roll.CPUTime != acc.CPUTime || roll.Requests != acc.Requests {
			a.report("hierarchy", now,
				"service %s: roll-up cpu=%s n=%d vs incremental cpu=%s n=%d",
				s.Qualified(), sim.FormatTime(roll.CPUTime), roll.Requests,
				sim.FormatTime(acc.CPUTime), acc.Requests)
		}
	}
	for i := 0; i < h.NumTenants(); i++ {
		t := h.TenantAt(i)
		var svcSum float64
		for _, s := range t.Services() {
			svcSum += s.Usage().EnergyJ()
		}
		acc := t.Usage()
		if !closeRel(svcSum, acc.EnergyJ(), 1e-9) {
			a.report("hierarchy", now,
				"tenant %s: Σ services %.9f J != tenant %.9f J", t.Name, svcSum, acc.EnergyJ())
		}
		if roll := t.RollUp(); !closeRel(roll.EnergyJ(), acc.EnergyJ(), 1e-9) {
			a.report("hierarchy", now,
				"tenant %s: canonical roll-up %.9f J != incremental %.9f J",
				t.Name, roll.EnergyJ(), acc.EnergyJ())
		}
		if t.BudgetThrottles() > 0 && t.Budget.IsZero() {
			a.report("budget-enforcement", now,
				"tenant %s throttled %d times with no budget configured",
				t.Name, t.BudgetThrottles())
		}
	}
	for i := 0; i < a.fac.NumContainers(); i++ {
		c := a.fac.ContainerAt(i)
		if c.Tenant == "" {
			continue
		}
		if _, ok := h.FindService(c.Tenant, c.Service); !ok {
			a.report("hierarchy", now,
				"container %d (%s) tagged %s/%s but no such service is registered",
				c.ID, c.Label, c.Tenant, c.Service)
		}
	}
}

// CheckLedger reconciles a dispatcher's ledger against the executing
// machines' containers (§3.4): per request, the response tag's snapshot
// must never exceed the container's final statistics (it is taken at
// completion, before the final partial sampling period lands), and in
// aggregate the shortfall must stay within DefaultLedgerTol.
func (a *Auditor) CheckLedger(l *cluster.Ledger, completed []cluster.CompletedRequest, now sim.Time) {
	// Finished and Dropped are mutually exclusive outcomes: an entry with
	// both was double-accounted somewhere (e.g. a response accepted after
	// the dispatcher gave the request up).
	for _, e := range l.Entries() {
		if e.Finished && e.Dropped {
			a.report("cluster-ledger", now,
				"request %d both finished and dropped", e.Tag.RequestID)
		}
	}
	var ledgerJ, contJ float64
	n := 0
	for _, c := range completed {
		if c.Req == nil || !c.Req.Finished() || c.Req.Cont == nil {
			continue
		}
		e, ok := l.Entry(c.RequestID)
		if !ok || !e.Finished {
			a.report("cluster-ledger", now, "completed request %d missing from ledger", c.RequestID)
			continue
		}
		final := c.Req.Cont.EnergyJ()
		if e.Tag.EnergyJ > final+1e-9 {
			a.report("cluster-ledger", now,
				"request %d ledger energy %.6f J exceeds container final %.6f J",
				c.RequestID, e.Tag.EnergyJ, final)
		}
		if e.Tag.CPUTime > c.Req.Cont.CPUTime {
			a.report("cluster-ledger", now,
				"request %d ledger cpu %s exceeds container final %s",
				c.RequestID, sim.FormatTime(e.Tag.CPUTime), sim.FormatTime(c.Req.Cont.CPUTime))
		}
		if e.Done < e.Arrive {
			a.report("cluster-ledger", now, "request %d done %d before arrive %d",
				c.RequestID, e.Done, e.Arrive)
		}
		ledgerJ += e.Tag.EnergyJ
		contJ += final
		n++
	}
	if n > 0 && contJ > 1e-9 {
		rel := (contJ - ledgerJ) / contJ
		if rel > DefaultLedgerTol || rel < -1e-9 {
			a.report("cluster-ledger", now,
				"ledger total %.3f J vs container total %.3f J over %d requests (%.1f%% > %.0f%% tolerance)",
				ledgerJ, contJ, n, 100*rel, 100*DefaultLedgerTol)
		}
	}
}

func seriesTotal(s *stats.Series) float64 {
	var sum float64
	for _, v := range s.Values() {
		sum += v
	}
	return sum
}

// closeRel reports |x−y| ≤ tol·max(|x|,|y|, 1e-9).
func closeRel(x, y, tol float64) bool {
	scale := math.Max(math.Abs(x), math.Abs(y))
	if scale < 1e-9 {
		scale = 1e-9
	}
	return math.Abs(x-y) <= tol*scale
}
