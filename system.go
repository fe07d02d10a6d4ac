// Package powercontainers is a faithful reimplementation of "Power
// Containers: An OS Facility for Fine-Grained Power and Energy Management
// on Multicore Servers" (Shen, Shriraman, Dwarkadas, Zhang, Chen —
// ASPLOS 2013) over a simulated multicore testbed.
//
// A System couples one simulated machine (the paper's SandyBridge,
// Westmere or Woodcrest testbeds) with the power-container facility: an
// event-driven multicore power model attributing power to concurrently
// running tasks (including shared chip maintenance power), online
// measurement alignment and model recalibration, application-transparent
// request context tracking through sockets and fork, per-request power and
// energy accounting, and per-request duty-cycle power conditioning.
//
// Quick start:
//
//	sys, err := powercontainers.NewSystem("SandyBridge")
//	run, err := sys.NewRun("GAE-Hybrid", powercontainers.HalfLoad)
//	report, err := run.Execute(10 * time.Second)
//	for _, r := range report.Requests { fmt.Println(r.Type, r.EnergyJoules) }
//
// The cmd/pcbench tool regenerates every table and figure of the paper's
// evaluation; DESIGN.md maps each to the modules implementing it.
package powercontainers

import (
	"fmt"
	"time"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Load selects the operating point of a run.
type Load int

const (
	// PeakLoad keeps the server fully utilized (closed-loop clients).
	PeakLoad Load = iota
	// HalfLoad drives roughly 50% utilization (Poisson arrivals).
	HalfLoad
)

// Attribution selects the power attribution approach (the three schemes of
// the paper's Figure 8).
type Attribution int

const (
	// CoreEventsOnly models per-task power from core-level events alone
	// (Eq. 1).
	CoreEventsOnly Attribution = iota
	// WithChipShare additionally attributes shared multicore maintenance
	// power (Eq. 2); the default.
	WithChipShare
	// WithRecalibration adds measurement-aligned online model
	// recalibration (§3.2).
	WithRecalibration
)

// Option configures a System.
type Option func(*config)

type config struct {
	approach Attribution
	baseSeed uint64
	capWatts float64
	audit    bool
}

// WithAttribution selects the attribution approach.
func WithAttribution(a Attribution) Option { return func(c *config) { c.approach = a } }

// WithSeed fixes the simulation seed (default 1); identical seeds yield
// bit-identical runs.
func WithSeed(seed uint64) Option { return func(c *config) { c.baseSeed = seed } }

// WithPowerCap enables fair request power conditioning with the given
// system active power target in watts: requests exceeding their share are
// throttled with per-core duty-cycle modulation while others run at full
// speed (§3.4).
func WithPowerCap(activeWatts float64) Option {
	return func(c *config) { c.capWatts = activeWatts }
}

// WithAudit attaches the runtime invariant auditor to the System's
// machine regardless of PC_AUDIT, with a collector private to this
// System: concurrent audited systems never interleave violation lists.
// Violations surface as errors from Run.Execute and are also readable via
// System.AuditViolations.
func WithAudit() Option { return func(c *config) { c.audit = true } }

// System is one simulated machine instrumented with the power-container
// facility, calibrated offline per §4.1.
type System struct {
	m   *experiments.Machine
	cfg config
	// auditC is the System's private audit collector (WithAudit), nil
	// when the system relies on the process default (PC_AUDIT).
	auditC *experiments.AuditCollector
}

// Machines lists the supported machine models.
func Machines() []string {
	var out []string
	for _, s := range cpu.Specs() {
		out = append(out, s.Name)
	}
	return out
}

// NewSystem builds an instrumented machine: "SandyBridge", "Westmere" or
// "Woodcrest". The first construction of each model runs the offline
// calibration procedure (cached afterwards).
func NewSystem(machine string, opts ...Option) (*System, error) {
	spec, err := cpu.SpecByName(machine)
	if err != nil {
		return nil, err
	}
	cfg := config{approach: WithChipShare, baseSeed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	var approach core.Approach
	switch cfg.approach {
	case CoreEventsOnly:
		approach = core.ApproachCoreOnly
	case WithChipShare:
		approach = core.ApproachChipShare
	case WithRecalibration:
		approach = core.ApproachRecalibrated
	default:
		return nil, fmt.Errorf("powercontainers: unknown attribution %d", cfg.approach)
	}
	var ex experiments.Exec
	var auditC *experiments.AuditCollector
	if cfg.audit {
		auditC = experiments.NewAuditCollector(true)
		ex.Audit = auditC
	}
	m, err := ex.NewMachine(spec, approach, cfg.baseSeed)
	if err != nil {
		return nil, err
	}
	if cfg.capWatts > 0 {
		m.Fac.EnableConditioning(cfg.capWatts)
	}
	return &System{m: m, cfg: cfg, auditC: auditC}, nil
}

// MachineName returns the machine model.
func (s *System) MachineName() string { return s.m.K.Spec.Name }

// AuditViolations returns the invariant violations collected by this
// System's auditor (WithAudit), formatted one per entry. It is empty for
// a clean or un-audited system.
func (s *System) AuditViolations() []string {
	var out []string
	for _, v := range s.auditC.Violations() {
		out = append(out, v.String())
	}
	return out
}

// Cores returns the machine's core count.
func (s *System) Cores() int { return s.m.K.Spec.Cores() }

// Workloads lists the paper's evaluation workloads.
func Workloads() []string {
	var out []string
	for _, w := range experiments.EvalWorkloads() {
		out = append(out, w.Name())
	}
	return out
}

// Run is one prepared workload execution on a System. A System runs one
// Run; build a fresh System for another experiment.
type Run struct {
	sys   *System
	wl    workload.Workload
	load  Load
	gen   *server.LoadGen
	extra []*server.LoadGen
	// schedule is deferred virus/extra injections armed at Execute.
	schedule []func(until sim.Time)
	executed bool
	trace    bool
	targets  map[string]float64
	detector *core.AnomalyDetector
	clients  int
}

// AssignClients attributes requests to n simulated client principals with a
// Zipf popularity skew, enabling the per-client energy accounting of §1
// (Report.Clients).
func (r *Run) AssignClients(n int) { r.clients = n }

// EnableAnomalyDetection makes the run flag requests whose power sits far
// outside the running population — online power-virus detection ("pinpoint
// the sources of power spikes and anomalies", §1). Detected anomalies
// appear in the run's Report.
func (r *Run) EnableAnomalyDetection() {
	if r.detector == nil {
		r.detector = r.sys.m.Fac.EnableAnomalyDetection()
	}
}

// SetRequestPowerTarget installs a per-request active power target (watts)
// for every request whose type starts with typePrefix — the request-level
// control policies of §3.3. Requests exceeding their target are throttled
// with duty-cycle modulation once conditioning is enabled (WithPowerCap, or
// any positive target with the conditioner's system budget left unbounded).
func (r *Run) SetRequestPowerTarget(typePrefix string, watts float64) {
	if r.targets == nil {
		r.targets = map[string]float64{}
	}
	r.targets[typePrefix] = watts
}

// targetFor resolves the longest matching prefix target.
func (r *Run) targetFor(reqType string) float64 {
	best, bestLen := 0.0, -1
	for _, prefix := range experiments.SortedKeys(r.targets) {
		w := r.targets[prefix]
		if len(prefix) <= len(reqType) && reqType[:len(prefix)] == prefix && len(prefix) > bestLen {
			best, bestLen = w, len(prefix)
		}
	}
	return best
}

// NewRun deploys a named workload on the machine: one of Workloads, or
// the event-driven "EventServer". Names match regardless of case.
func (s *System) NewRun(workloadName string, load Load) (*Run, error) {
	wl, err := experiments.WorkloadByName(workloadName)
	if err != nil {
		return nil, fmt.Errorf("powercontainers: %w (known: %v)", err, Workloads())
	}
	return &Run{sys: s, wl: wl, load: load}, nil
}

// EnableRequestTracing captures per-request flow events (as in the paper's
// Figure 4) for every request of the run.
func (r *Run) EnableRequestTracing() { r.trace = true }

// InjectPowerViruses schedules sporadic power-virus requests (the paper's
// ~200-line cache/pipeline-saturating GAE app) at ratePerSec starting at
// the given offset into the run.
func (r *Run) InjectPowerViruses(ratePerSec float64, from time.Duration) error {
	if r.executed {
		return fmt.Errorf("powercontainers: run already executed")
	}
	m := r.sys.m
	vdep := workload.GAE{VirusLoadFraction: 1, DisableBackground: true}.Deploy(m.K, m.Rng.Fork(23))
	vgen := server.NewLoadGen(m.K, m.Fac, vdep)
	vgen.TraceRequests = r.trace
	r.extra = append(r.extra, vgen)
	vrng := m.Rng.Fork(29)
	r.schedule = append(r.schedule, func(until sim.Time) {
		m.Eng.At(sim.Time(from), func() {
			vgen.RunOpenLoop(ratePerSec, until, vrng)
		})
	})
	return nil
}

// Execute drives the simulation for the given virtual duration and returns
// the run's report. The measurement window excludes a warm-up of 1/5 of the
// duration (at least one second).
func (r *Run) Execute(d time.Duration) (*Report, error) {
	if r.executed {
		return nil, fmt.Errorf("powercontainers: run already executed")
	}
	r.executed = true
	m := r.sys.m
	until := sim.Time(d)
	if until < 2*sim.Second {
		return nil, fmt.Errorf("powercontainers: run duration %v too short (need ≥2s)", d)
	}
	level := experiments.PeakLoad
	switch r.load {
	case PeakLoad:
	case HalfLoad:
		level = experiments.HalfLoad
	default:
		return nil, fmt.Errorf("powercontainers: unknown load %d", r.load)
	}
	rig := m.Deploy(r.wl)
	r.gen = rig.Gen
	r.gen.TraceRequests = r.trace
	if r.clients > 0 {
		pool := server.NewClientPool(r.clients, 0.9, m.Rng.Fork(15))
		r.gen.Clients = pool
		for _, g := range r.extra {
			g.Clients = pool
		}
	}
	if r.targets != nil {
		r.gen.PowerTargetFor = r.targetFor
		// Per-request targets need the conditioner; leave the system
		// budget effectively unbounded unless a cap was configured.
		if r.sys.cfg.capWatts <= 0 {
			m.Fac.EnableConditioning(1e9)
		}
	}
	rig.Drive(level, until)
	for _, arm := range r.schedule {
		arm(until)
	}

	warm := until / 5
	if warm < sim.Second {
		warm = sim.Second
	}
	// Align the window to Wattsup seconds.
	warm = (warm / sim.Second) * sim.Second
	end := (until / sim.Second) * sim.Second

	measured, accounted, background, err := m.MeasureWindow(warm, end, until+3*sim.Second)
	if err != nil {
		return nil, fmt.Errorf("powercontainers: %w", err)
	}
	return r.buildReport(warm, end, measured, accounted, background), nil
}
