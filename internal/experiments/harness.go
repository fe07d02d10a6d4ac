// Package experiments implements every table and figure of the paper's
// evaluation (§4) as a reproducible function over the simulated testbed.
// Each experiment returns a structured result that cmd/pcbench renders in
// the paper's format and bench_test.go exercises as a benchmark.
package experiments

import (
	"fmt"
	"math"
	"os"
	"sync"

	"powercontainers/internal/audit"
	"powercontainers/internal/calib"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// AuditCollector gathers the invariant auditors of one run. Each parallel
// experiment run owns its own collector, so concurrent runs never
// interleave violation lists; the process-default collector (PC_AUDIT)
// backs machines assembled without an explicit collector.
type AuditCollector struct {
	mu       sync.Mutex
	enabled  bool
	auditors []*audit.Auditor
}

// NewAuditCollector returns an empty collector; enabled selects whether
// machines assembled against it get an auditor attached.
func NewAuditCollector(enabled bool) *AuditCollector {
	return &AuditCollector{enabled: enabled}
}

// Enabled reports whether the collector attaches auditors.
func (c *AuditCollector) Enabled() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// Violations returns every violation collected by this run's auditors.
func (c *AuditCollector) Violations() []audit.Violation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []audit.Violation
	for _, a := range c.auditors {
		out = append(out, a.Violations()...)
	}
	return out
}

// newAuditor registers a fresh auditor when the collector is enabled.
func (c *AuditCollector) newAuditor(label string) *audit.Auditor {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled {
		return nil
	}
	a := audit.New(label)
	c.auditors = append(c.auditors, a)
	return a
}

// defaultAudit is the process-default collector. Auditing is off by
// default (zero overhead beyond nil checks); PC_AUDIT=1 in the
// environment turns it on for a whole process, such as a test run.
var defaultAudit struct {
	sync.Mutex
	c *AuditCollector
}

func init() { initDefaultAudit() }

// initDefaultAudit (re)reads PC_AUDIT into a fresh default collector.
func initDefaultAudit() {
	enabled := false
	switch os.Getenv("PC_AUDIT") {
	case "", "0", "false", "off":
		// disabled
	default:
		enabled = true
	}
	setDefaultAudit(NewAuditCollector(enabled))
}

func setDefaultAudit(c *AuditCollector) {
	defaultAudit.Lock()
	defer defaultAudit.Unlock()
	defaultAudit.c = c
}

// DefaultAudit returns the process-default audit collector.
func DefaultAudit() *AuditCollector {
	defaultAudit.Lock()
	defer defaultAudit.Unlock()
	return defaultAudit.c
}

// Exec configures one experiment run's execution: the worker-pool bound
// for the run's job plan and the audit collector of every machine the run
// assembles, so parallel runs stay isolated.
type Exec struct {
	// Jobs bounds how many of the run's jobs execute concurrently
	// (0 = runner.DefaultJobs()). Results are byte-identical at any
	// value; Jobs trades only wall-clock for cores.
	Jobs int
	// Audit receives the run's machine auditors; nil falls back to the
	// process-default collector (PC_AUDIT).
	Audit *AuditCollector
}

// collector resolves the run's audit collector.
func (ex Exec) collector() *AuditCollector {
	if ex.Audit != nil {
		return ex.Audit
	}
	return DefaultAudit()
}

// NewRunExec returns the Exec for one experiment run: the given worker
// bound and a fresh audit collector inheriting the process default's
// enablement, so parallel runs collect violations separately.
func NewRunExec(jobs int) Exec {
	return Exec{Jobs: jobs, Audit: NewAuditCollector(DefaultAudit().Enabled())}
}

// calibCache memoizes offline calibration per machine: it is a controlled
// one-time procedure in the paper too ("performed once for each target
// machine configuration"). Each machine gets its own once-guarded entry,
// so under the parallel runner distinct machines calibrate concurrently
// while duplicate work is still avoided.
var calibCache struct {
	sync.Mutex
	m map[string]*calibEntry
}

type calibEntry struct {
	once sync.Once
	res  *calib.Result
	err  error
}

// CalibrationFor returns the (cached) offline calibration of a machine.
func CalibrationFor(spec cpu.MachineSpec) (*calib.Result, error) {
	calibCache.Lock()
	if calibCache.m == nil {
		calibCache.m = make(map[string]*calibEntry)
	}
	e := calibCache.m[spec.Name]
	if e == nil {
		e = &calibEntry{}
		calibCache.m[spec.Name] = e
	}
	calibCache.Unlock()
	e.once.Do(func() {
		e.res, e.err = calib.Calibrate(spec, calib.DefaultConfig())
	})
	return e.res, e.err
}

// Machine is a fully assembled machine under test: kernel, facility, and
// meters, with the offline-calibrated model installed.
type Machine struct {
	Eng     *sim.Engine
	K       *kernel.Kernel
	Fac     *core.Facility
	Wattsup *power.WattsupMeter
	Chip    *power.ChipMeter
	Calib   *calib.Result
	Rng     *sim.Rand
	// Audit is the machine's invariant auditor when its collector is
	// enabled, nil otherwise.
	Audit *audit.Auditor
}

// FinalizeAudit runs the machine's end-of-run audit checks, returning
// their violations as an error. It is a no-op without an attached auditor.
func (m *Machine) FinalizeAudit() error {
	if m.Audit == nil {
		return nil
	}
	return m.Audit.FinalizeMachine()
}

// NewMachine assembles a machine with the given attribution approach
// against the process-default audit collector.
func NewMachine(spec cpu.MachineSpec, approach core.Approach, seed uint64) (*Machine, error) {
	return Exec{}.NewMachine(spec, approach, seed)
}

// NewMachine assembles a machine with the given attribution approach.
// ApproachRecalibrated additionally wires online recalibration against the
// machine's best meter (the on-chip meter on SandyBridge, the Wattsup
// elsewhere).
func (ex Exec) NewMachine(spec cpu.MachineSpec, approach core.Approach, seed uint64) (*Machine, error) {
	return ex.NewMachineOnEngine(sim.NewEngine(), spec, approach, seed)
}

// NewMachineOnEngine assembles a machine onto a shared engine (cluster
// experiments put several machines on one timeline).
func (ex Exec) NewMachineOnEngine(eng *sim.Engine, spec cpu.MachineSpec, approach core.Approach, seed uint64) (*Machine, error) {
	cal, err := CalibrationFor(spec)
	if err != nil {
		return nil, err
	}
	profile, err := power.Profiles(spec)
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(spec.Name, spec, profile, eng, nil)
	if err != nil {
		return nil, err
	}
	coeff := cal.Eq2
	if approach == core.ApproachCoreOnly {
		coeff = cal.Eq1
	}
	facApproach := approach
	if approach == core.ApproachRecalibrated {
		facApproach = core.ApproachChipShare // recalibration wiring flips it below
	}
	fac := core.Attach(k, coeff, core.Config{Approach: facApproach})
	m := &Machine{
		Eng:     eng,
		K:       k,
		Fac:     fac,
		Wattsup: power.NewWattsupMeter(k.Rec, seed*7919+1),
		Chip:    power.NewChipMeter(k.Rec, seed*7919+2),
		Calib:   cal,
		Rng:     sim.NewRand(seed),
	}
	if approach == core.ApproachRecalibrated {
		if calib.HasChipMeter(spec) {
			fac.EnableRecalibration(m.Chip, model.ScopePackage, cal.Samples)
		} else {
			fac.EnableRecalibration(m.Wattsup, model.ScopeMachine, cal.Samples)
		}
	}
	if a := ex.collector().newAuditor(fmt.Sprintf("%s/%s", spec.Name, approach)); a != nil {
		a.AttachMachine(fac)
		m.Audit = a
	}
	return m, nil
}

// LoadLevel selects the paper's two operating points.
type LoadLevel int

const (
	// PeakLoad fully utilizes the server (closed loop, zero think time).
	PeakLoad LoadLevel = iota
	// HalfLoad drives ≈50% utilization (open-loop Poisson arrivals).
	HalfLoad
)

func (l LoadLevel) String() string {
	if l == PeakLoad {
		return "peak load"
	}
	return "half load"
}

// RunSpec configures a workload run.
type RunSpec struct {
	Workload workload.Workload
	Load     LoadLevel
	// Warmup and Window bound the measurement window.
	Warmup, Window sim.Time
}

// RunResult is one workload run's measurements.
type RunResult struct {
	Gen *server.LoadGen
	// T0, T1 bound the measurement window.
	T0, T1 sim.Time
	// MeasuredActiveW is the Wattsup machine-active power over the
	// window (reading minus idle).
	MeasuredActiveW float64
	// AccountedW is the facility's aggregate profiled request power:
	// total container energy accrued in the window divided by its
	// length (§4.2's validation quantity).
	AccountedW float64
	// BackgroundW is the background container's share of AccountedW.
	BackgroundW float64
}

// ValidationError is the paper's Figure 8 metric:
// |accounted − measured| / measured, with 0 for a non-positive measured
// power.
func ValidationError(accounted, measured float64) float64 {
	if measured <= 0 {
		return 0
	}
	return math.Abs(accounted-measured) / measured
}

// defaultWarmup and defaultWindow are aligned to Wattsup one-second
// windows so window-mean measurement is exact.
const (
	defaultWarmup = 2 * sim.Second
	defaultWindow = 8 * sim.Second
)

// PeakClients returns the closed-loop client count that saturates a
// deployment on a machine.
func PeakClients(spec cpu.MachineSpec) int { return 3 * spec.Cores() }

// PeakRate estimates a deployment's saturation throughput (req/s).
func PeakRate(spec cpu.MachineSpec, dep *server.Deployment) float64 {
	return float64(spec.Cores()) / dep.MeanServiceSec
}

// Run executes a workload on a fresh machine and measures the window.
func (ex Exec) Run(spec cpu.MachineSpec, approach core.Approach, rs RunSpec, seed uint64) (*RunResult, error) {
	m, err := ex.NewMachine(spec, approach, seed)
	if err != nil {
		return nil, err
	}
	return RunOn(m, rs)
}

// RunOn executes a workload run on an assembled machine.
func RunOn(m *Machine, rs RunSpec) (*RunResult, error) {
	if rs.Warmup <= 0 {
		rs.Warmup = defaultWarmup
		// Recalibration against a slow wall meter (1 s windows,
		// 1.2 s delivery lag) needs tens of seconds of samples before
		// the delay estimate and the first refits settle.
		if r := m.Fac.Recalibrator(); r != nil && r.Meter.Interval() >= sim.Second {
			rs.Warmup = 16 * sim.Second
		}
	}
	if rs.Window <= 0 {
		rs.Window = defaultWindow
	}
	rig := m.Deploy(rs.Workload)
	t0 := rs.Warmup
	t1 := rs.Warmup + rs.Window
	rig.Drive(rs.Load, t1)

	// Run past t1 so delayed meter samples are delivered.
	measured, accounted, background, err := m.MeasureWindow(t0, t1, t1+3*sim.Second)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Gen:             rig.Gen,
		T0:              t0,
		T1:              t1,
		MeasuredActiveW: measured,
		AccountedW:      accounted,
		BackgroundW:     background,
	}, nil
}

// MeasureWindow runs the machine until end, then its end-of-run audit,
// and measures the window [t0, t1): the Wattsup active power, the power
// the facility accounted, and the background container's part of it.
func (m *Machine) MeasureWindow(t0, t1, end sim.Time) (measuredW, accountedW, backgroundW float64, err error) {
	var acc0, bg0, acc1, bg1 float64
	m.Eng.At(t0, func() { acc0, bg0 = m.Fac.TotalAccountedEnergyJ(), m.Fac.Background.EnergyJ() })
	m.Eng.At(t1, func() { acc1, bg1 = m.Fac.TotalAccountedEnergyJ(), m.Fac.Background.EnergyJ() })
	m.Eng.RunUntil(end)
	if err := m.FinalizeAudit(); err != nil {
		return 0, 0, 0, err
	}
	if measuredW, err = WattsupActiveMean(m, m.Eng.Now(), t0, t1); err != nil {
		return 0, 0, 0, err
	}
	windowSec := float64(t1-t0) / float64(sim.Second)
	return measuredW, (acc1 - acc0) / windowSec, (bg1 - bg0) / windowSec, nil
}

// WattsupActiveMean averages a machine's Wattsup active power over
// [t0, t1); the window must be aligned to whole seconds.
func WattsupActiveMean(m *Machine, now, t0, t1 sim.Time) (float64, error) {
	return power.ActiveMean(m.Wattsup, now, t0, t1)
}
