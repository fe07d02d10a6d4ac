// Package stream turns the repo's run-to-completion pipeline (meters →
// align → recalibrate → containers) into a long-running streaming
// attribution engine: a pull-based consumer that drives the simulation in
// fixed ticks and, at each tick boundary, incrementally consumes meter
// samples (power.ReadFresh cursors) and per-container attribution deltas
// (core.Facility creation-order scans), evaluates the modeled power over
// the tick's own metric buckets, and emits a per-container power/energy
// record stream. The only history it keeps is the drift refit's bounded
// window of aligned pairs; everything else is a cursor. At every tick
// boundary it trims the facility's metric series to the lowest bucket any
// writer or reader can still touch, so a stream that runs for hours holds
// only seconds of metric buckets.
//
// Determinism contract: the engine is a pure consumer — it never schedules
// simulation events, so driving the engine tick by tick processes the
// exact event sequence a single batch RunUntil would. The one side effect
// of consumption is that reading a meter flushes the power recorder up to
// the read time, which splits the chip-maintenance energy integration at
// the pull instant. When online recalibration is enabled its 100ms
// ingest event already flushes at every multiple of
// core.DefaultRecalibrationPeriod — so a tick that is a multiple of that
// period makes the engine's pull a no-op flush and keeps the whole run,
// attribution and measurement alike, bit-identical to the batch path.
// Without recalibration the flush split perturbs only measured readings
// at rounding level (nothing feeds back into the simulation), and
// attribution remains bit-identical for any tick. TestStreamMatchesBatch
// pins both claims.
package stream

import (
	"powercontainers/internal/align"
	"powercontainers/internal/core"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// DefaultTick is the default streaming period: the recalibration ingest
// period, so that pulls coincide with flushes the simulation already
// performs (see the package comment's determinism contract).
const DefaultTick = core.DefaultRecalibrationPeriod

// Sources are the simulation-side taps the engine consumes. The engine
// reads them; it never mutates the simulation beyond meter-read flushes.
type Sources struct {
	Eng *sim.Engine
	Fac *core.Facility
	// Meter is the measured-power stream (nil disables measured power
	// and the drift refit).
	Meter power.Meter
	// Scope selects the drift refit target matching Meter (machine scope
	// for a wall meter, package scope for the on-chip meter).
	Scope model.FitScope
}

// Config sets the engine's cadence. Zero values select the defaults.
type Config struct {
	// Tick is the streaming period (default DefaultTick). For bit-exact
	// equivalence with the batch path under online recalibration it must
	// be a multiple of core.DefaultRecalibrationPeriod.
	Tick sim.Time
	// CheckpointEvery takes an automatic checkpoint every that many ticks
	// (0 disables; the checkpoint is retained, see LastCheckpoint).
	CheckpointEvery int
}

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = DefaultTick
	}
	return c
}

// Sink receives the engine's record stream.
type Sink interface {
	OnRecord(r Record)
}

// contCursor tracks one live container's last observed cumulative
// energy; per-tick records are deltas of it.
type contCursor struct {
	c     *core.Container
	lastJ float64
}

// driftMinPairs is the observation count below which the windowed drift
// refit withholds a solution; driftRebuildEvery is the window's exact
// rebuild cadence (model.Window) — tighter than align.Recalibrator's,
// because the stream contract promises the windowed refit stays within
// 1e-9 relative of a batch fit over the same pairs, and ~30 downdates of
// residue keep it there where 256 would not.
const (
	driftMinPairs     = 8
	driftRebuildEvery = 32
)

// driftWindow caps the aligned pairs the drift refit retains.
const driftWindow = 512

// Every ledgerCheckEvery ticks the streamed per-container energy ledger
// is reconciled against the facility's full accounting, to within
// ledgerTol relative.
const (
	ledgerCheckEvery = 50
	ledgerTol        = 1e-6
)

// Engine is the streaming attribution engine. Drive it with RunTicks or
// RunUntil; records flow to Sink, live-check failures to Observer. Outside the
// Sources the engine holds cursors (one per live container, service and
// tenant) and the drift refit's window of at most 512 aligned pairs.
type Engine struct {
	src Sources
	cfg Config

	// Sink receives records; nil discards them (Records still counts).
	Sink Sink
	// Observer sees live conservation-check failures
	// (sim.KindStreamViolation); may be nil.
	Observer sim.Observer

	tick    int // completed ticks; engine time is tick*cfg.Tick
	records int64
	cumJ    float64 // running attributed energy, summed in emission order

	meterSeen int

	containersSeen int
	live           []contCursor // creation order; released entries removed

	// Hierarchy cursors: last observed cumulative energy per service and
	// per tenant, indexed by registration order (Service.Index and
	// Tenant.Index). Empty on flat runs, whose streams therefore stay
	// byte-identical to pre-hierarchy builds.
	svcLast []float64
	tenLast []float64

	delay      sim.Time // drift-pair alignment delay
	delayKnown bool
	window     *model.Window       // aligned pairs of the drift refit
	pairs      []align.AlignedPair // foldDrift's reused alignment buffer
	drift      model.Coefficients
	driftOK    bool
	driftErr   float64

	lastCP   *Checkpoint
	stateBuf []byte // Checkpoint's reused canonical-state buffer
}

// New attaches a streaming engine to the given sources. The engine
// assumes exclusive ownership of its meter-read cursor; the
// recalibrator's own cursors are independent and untouched.
func New(src Sources, cfg Config) *Engine {
	if src.Eng == nil || src.Fac == nil {
		panic("stream: New requires Eng and Fac sources")
	}
	return &Engine{
		src:    src,
		cfg:    cfg.withDefaults(),
		window: model.NewWindow(nil, driftRebuildEvery),
	}
}

// Tick returns the number of completed ticks.
func (e *Engine) Tick() int { return e.tick }

// Now returns the engine's time: the end of the last completed tick.
func (e *Engine) Now() sim.Time { return sim.Time(e.tick) * e.cfg.Tick }

// Records returns how many records the engine has emitted.
func (e *Engine) Records() int64 { return e.records }

// CumAttributedJ returns the streamed attribution ledger: total energy
// attributed across all containers, accumulated from per-tick deltas.
func (e *Engine) CumAttributedJ() float64 { return e.cumJ }

// DriftEvictions returns how many pairs have ever been evicted from the
// drift window; zero means the incremental fit is still bit-identical to
// a batch fit over the window (no Remove residue).
func (e *Engine) DriftEvictions() int64 { return e.window.Evictions() }

// LastCheckpoint returns the most recent automatic checkpoint (nil before
// the first CheckpointEvery boundary).
func (e *Engine) LastCheckpoint() *Checkpoint { return e.lastCP }

// RunTicks advances the engine by n ticks.
func (e *Engine) RunTicks(n int) {
	for i := 0; i < n; i++ {
		e.step()
	}
}

// RunUntil advances the engine through every tick boundary ≤ t. Time
// between the last boundary and t is not consumed (the engine only
// observes whole ticks).
func (e *Engine) RunUntil(t sim.Time) {
	for sim.Time(e.tick+1)*e.cfg.Tick <= t {
		e.step()
	}
}

// step advances the simulation one tick and consumes everything that
// became observable, emitting container records (creation order) followed
// by one system record.
func (e *Engine) step() {
	e.tick++
	t := sim.Time(e.tick) * e.cfg.Tick
	e.src.Eng.RunUntil(t)

	// Meter ingestion: the fresh tail since the last pull, as active watts.
	var freshSamples []power.Sample
	if e.src.Meter != nil {
		freshSamples, e.meterSeen = power.ReadFresh(e.src.Meter, t, e.meterSeen)
	}

	// Container scan: adopt containers born since the last tick, then
	// walk the live set in creation order diffing cumulative stats.
	fac := e.src.Fac
	for n := fac.NumContainers(); e.containersSeen < n; e.containersSeen++ {
		e.live = append(e.live, contCursor{c: fac.ContainerAt(e.containersSeen)})
	}
	var tickJ float64
	keep := e.live[:0]
	for i := range e.live {
		cc := &e.live[i]
		c := cc.c
		j := c.EnergyJ()
		delta := j - cc.lastJ
		done := c.Released && c.Refs() == 0
		tickJ += delta
		//pclint:allow floatsafe exact-zero fast path: an untouched container contributes no record
		if delta != 0 || done {
			e.cumJ += delta
			e.emit(Record{
				Tick: e.tick, T: t, Kind: KindContainer,
				ID: c.ID, Label: c.Label, Client: c.Client,
				//pclint:allow floatsafe tickSeconds is positive: withDefaults forces cfg.Tick > 0
				PowerW:     delta / e.tickSeconds(),
				EnergyJ:    delta,
				CumEnergyJ: j,
				Done:       done,
			})
		}
		cc.lastJ = j
		if !done {
			keep = append(keep, *cc)
		}
	}
	// Zero dropped tail cursors so released containers become collectable.
	clear(e.live[len(keep):])
	e.live = keep

	// Hierarchy roll-up records: per-service then per-tenant deltas over
	// the same tick, mirroring the container scan. Flat runs skip this
	// entirely — no hierarchy, no records, byte-identical stream.
	if h := fac.Hierarchy(); h != nil {
		e.emitHierarchy(h, t)
	}

	// Drift refit: align fresh samples and fold them into the windowed
	// Gram, evicting beyond the window.
	e.foldDrift(freshSamples)

	e.emit(Record{
		Tick: e.tick, T: t, Kind: KindSystem,
		EnergyJ:    tickJ,
		CumEnergyJ: e.cumJ,
		//pclint:allow floatsafe tickSeconds is positive: withDefaults forces cfg.Tick > 0
		AttributedW: tickJ / e.tickSeconds(),
		ModeledW:    e.modeledTickMean(),
		MeasuredW:   meanActive(freshSamples, e.src.Meter),
		Samples:     len(freshSamples),
		FitN:        e.window.Len(),
		DriftErr:    e.driftErr,
	})

	if e.tick%ledgerCheckEvery == 0 {
		e.checkLedger(t)
	}
	if e.cfg.CheckpointEvery > 0 && e.tick%e.cfg.CheckpointEvery == 0 {
		e.lastCP = e.Checkpoint()
	}

	// Release the metric buckets no writer or reader will touch again.
	ms := fac.Metrics()
	ms.Trim(int(min(fac.MetricsFloor(), e.metricsFloor()) / ms.Interval()))
}

// metricsFloor returns the earliest time the engine's coming ticks can
// read from the facility's metric series: the next tick's modeled mean
// reads from Now on, and the drift refit aligns samples arriving after Now
// over [arrival − delay − meter interval, arrival − delay). Until the
// drift delay is known a sample's window is unknown, so the floor is zero.
func (e *Engine) metricsFloor() sim.Time {
	if e.src.Meter == nil {
		return e.Now()
	}
	if !e.delayKnown {
		return 0
	}
	return max(e.Now()-e.delay-e.src.Meter.Interval(), 0)
}

// emitHierarchy walks the hierarchy's services and tenants in
// registration order, adopting nodes born since the last tick and
// emitting a record for every node whose cumulative energy moved. The
// cumulative values are the incremental accumulators (charged in
// simulation order) — the same view enforcement reads — so the streamed
// per-tenant ledger reconciles with the container records it aggregates.
func (e *Engine) emitHierarchy(h *core.Hierarchy, t sim.Time) {
	for len(e.svcLast) < h.NumServices() {
		e.svcLast = append(e.svcLast, 0)
	}
	for i := range e.svcLast {
		s := h.ServiceAt(i)
		j := s.Usage().EnergyJ()
		delta := j - e.svcLast[i]
		//pclint:allow floatsafe exact-zero fast path: an idle service contributes no record
		if delta != 0 {
			e.emit(Record{
				Tick: e.tick, T: t, Kind: KindService,
				ID: s.Index, Label: s.Qualified(), Client: s.Tenant.Name,
				//pclint:allow floatsafe tickSeconds is positive: withDefaults forces cfg.Tick > 0
				PowerW:     delta / e.tickSeconds(),
				EnergyJ:    delta,
				CumEnergyJ: j,
			})
		}
		e.svcLast[i] = j
	}
	for len(e.tenLast) < h.NumTenants() {
		e.tenLast = append(e.tenLast, 0)
	}
	for i := range e.tenLast {
		ten := h.TenantAt(i)
		j := ten.Usage().EnergyJ()
		delta := j - e.tenLast[i]
		//pclint:allow floatsafe exact-zero fast path: an idle tenant contributes no record
		if delta != 0 {
			e.emit(Record{
				Tick: e.tick, T: t, Kind: KindTenant,
				ID: ten.Index, Label: ten.Name,
				//pclint:allow floatsafe tickSeconds is positive: withDefaults forces cfg.Tick > 0
				PowerW:     delta / e.tickSeconds(),
				EnergyJ:    delta,
				CumEnergyJ: j,
			})
		}
		e.tenLast[i] = j
	}
}

func (e *Engine) tickSeconds() float64 {
	return float64(e.cfg.Tick) / float64(sim.Second)
}

func (e *Engine) emit(r Record) {
	e.records++
	if e.Sink != nil {
		e.Sink.OnRecord(r)
	}
}

// checkLedger reconciles the streamed ledger (cumJ, accumulated from
// per-tick per-container deltas in emission order) against the facility's
// authoritative full-scan accounting — the live-stream conservation check.
// The scan visits every container ever created, so it runs only when an
// observer will hear the verdict.
func (e *Engine) checkLedger(t sim.Time) {
	if e.Observer == nil {
		return
	}
	want := e.src.Fac.TotalAccountedEnergyJ()
	diff := e.cumJ - want
	if diff < 0 {
		diff = -diff
	}
	bound := ledgerTol * (1 + abs(want))
	if diff > bound {
		e.Observer.Observe(sim.Event{Kind: sim.KindStreamViolation, T: t, Name: "stream-ledger",
			Detail: "streamed ledger " + formatFloat(e.cumJ) + " J vs accounted " + formatFloat(want) + " J"})
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// modeledTickMean averages the modeled power of the metric buckets
// covering the last tick, under the facility's current coefficients.
func (e *Engine) modeledTickMean() float64 {
	t := sim.Time(e.tick) * e.cfg.Tick
	ms := e.src.Fac.Metrics()
	lo := int((t - e.cfg.Tick) / ms.Interval())
	hi := min(int(t/ms.Interval()), ms.Len())
	if hi <= lo {
		return 0
	}
	coeff := e.src.Fac.Coeff
	var sum float64
	for b := lo; b < hi; b++ {
		sum += coeff.Estimate(ms.At(b))
	}
	return sum / float64(hi-lo)
}

func meanActive(samples []power.Sample, m power.Meter) float64 {
	if len(samples) == 0 || m == nil {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s.Watts - m.IdleW()
	}
	return sum / float64(len(samples))
}

// foldDrift aligns freshly delivered meter samples into (metrics, active
// power) pairs and maintains the windowed online refit over them.
func (e *Engine) foldDrift(fresh []power.Sample) {
	if e.src.Meter == nil || len(fresh) == 0 {
		return
	}
	if !e.delayKnown {
		// Take the delay from the facility's recalibrator once it has
		// aligned (the estimate the attribution pipeline itself uses);
		// without a recalibrator fall back to the meter's nominal delay.
		// Samples arriving before the delay resolves are not aligned —
		// the drift monitor has a warm-up, deterministically.
		if r := e.src.Fac.Recalibrator(); r != nil {
			if d, ok := r.Delay(); ok {
				e.delay, e.delayKnown = d, true
			}
		} else {
			e.delay, e.delayKnown = e.src.Meter.Delay(), true
		}
		if !e.delayKnown {
			return
		}
	}
	ms := e.src.Fac.Metrics()
	opts := model.FitOptions{
		Scope:            e.src.Scope,
		IncludeChipShare: e.src.Fac.Coeff.IncludesChipShare,
		IdleW:            e.src.Meter.IdleW(),
		Base:             e.src.Fac.Coeff,
	}
	// The drift window has no base block, so no plan can fail it.
	_ = e.window.SetPlan(model.FitPlan{Scope: opts.Scope, IncludeChipShare: opts.IncludeChipShare})
	e.pairs = align.AlignSamples(e.pairs[:0], fresh, e.src.Meter.IdleW(), e.src.Meter.Interval(), ms, e.delay)
	for _, p := range e.pairs {
		// A pair the plan cannot fold is not kept.
		_ = e.window.Add(p.CalSample(e.src.Scope))
	}
	e.window.Trim(driftWindow)
	e.solveDrift(opts)
}

// solveDrift refreshes the windowed fit and its in-window error.
func (e *Engine) solveDrift(opts model.FitOptions) {
	if e.window.Len() < driftMinPairs {
		e.driftOK = false
		e.driftErr = 0
		return
	}
	c, err := e.window.Solve(opts)
	if err != nil {
		e.driftOK = false
		e.driftErr = 0
		return
	}
	e.drift = c
	e.driftOK = true
	e.driftErr = model.FitError(c, e.window.Samples(), e.src.Scope)
}
