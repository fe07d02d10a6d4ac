package core

import (
	"math"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// quadSpec is a single-chip quad-core 1 GHz machine for deterministic tests.
var quadSpec = cpu.MachineSpec{
	Name:         "Quad",
	Chips:        1,
	CoresPerChip: 4,
	FreqHz:       1e9,
	DutyLevels:   8,
}

// uniSpec is a single-core variant.
var uniSpec = cpu.MachineSpec{
	Name:         "Uni",
	Chips:        1,
	CoresPerChip: 1,
	FreqHz:       1e9,
	DutyLevels:   8,
}

// testProfile is a purely linear ground truth so a matching coefficient set
// attributes exactly.
var testProfile = power.TrueProfile{
	MachineIdleW: 40,
	PkgIdleW:     2,
	ChipMaintW:   6,
	CoreW:        8,
	InsW:         2,
	FloatW:       1,
	CacheW:       100,
	MemW:         200,
	SynW:         0,
	DiskW:        1.7,
	NetW:         5.8,
}

// matching coefficients: the model equals the hidden truth.
var trueCoeff = model.Coefficients{
	IdleW: 40, Core: 8, Ins: 2, Float: 1, Cache: 100, Mem: 200,
	Chip: 6, Disk: 1.7, Net: 5.8, IncludesChipShare: true,
}

func newRig(t *testing.T, spec cpu.MachineSpec, cfg Config) (*kernel.Kernel, *Facility) {
	t.Helper()
	eng := sim.NewEngine()
	k, err := kernel.New("test", spec, testProfile, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := Attach(k, trueCoeff, cfg)
	return k, f
}

func TestAttachProgramsOverflowThresholds(t *testing.T) {
	k, f := newRig(t, quadSpec, Config{})
	for _, c := range k.Cores {
		if got := c.OverflowThreshold(); got != 1e6 { // 1ms at 1 GHz
			t.Fatalf("threshold = %g, want 1e6", got)
		}
	}
	if k.Monitor != f {
		t.Fatal("facility not installed as monitor")
	}
	if f.Background == nil || f.Background.Kind != KindBackground {
		t.Fatal("background container missing")
	}
}

func TestSingleTaskAttribution(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{Approach: ApproachChipShare})
	cont := f.NewContainer("req")
	act := cpu.Activity{IPC: 1.5, LLCPC: 0.01, MemPC: 0.001}
	k.Spawn("worker", kernel.Script(kernel.Compute(50e6, act)), cont)
	k.Eng.Run()

	// 50e6 cycles at 1 GHz = 50 ms busy. Expected power: linear terms +
	// full chip share (only core busy).
	wantP := 8 + 2*1.5 + 100*0.01 + 200*0.001 + 6.0
	wantJ := wantP * 0.050
	if math.Abs(cont.CPUEnergyJ-wantJ)/wantJ > 0.02 {
		t.Fatalf("attributed %.4f J, want ≈%.4f J", cont.CPUEnergyJ, wantJ)
	}
	if math.Abs(float64(cont.CPUTime)-50e6)/50e6 > 0.01 {
		t.Fatalf("cpu time = %v, want ≈50ms", cont.CPUTime)
	}
	if cont.MeanActivePowerW() < wantP*0.97 || cont.MeanActivePowerW() > wantP*1.03 {
		t.Fatalf("mean power = %.2f, want ≈%.2f", cont.MeanActivePowerW(), wantP)
	}
	// Ground truth must agree since coefficients equal the hidden model.
	const windowSeconds = 0.050
	truth := k.Rec.PkgActivePowerW(0, 50*sim.Millisecond) * windowSeconds
	if math.Abs(cont.CPUEnergyJ-truth)/truth > 0.05 {
		t.Fatalf("attribution %.4f J diverges from ground truth %.4f J", cont.CPUEnergyJ, truth)
	}
}

func TestChipShareSplitsAcrossConcurrentTasks(t *testing.T) {
	k, f := newRig(t, quadSpec, Config{Approach: ApproachChipShare})
	var conts []*Container
	for i := 0; i < 4; i++ {
		c := f.NewContainer("req")
		conts = append(conts, c)
		k.Spawn("w", kernel.Script(kernel.Compute(50e6, cpu.Activity{IPC: 1})), c)
	}
	k.Eng.Run()
	var chipTotal float64
	for _, c := range conts {
		chipTotal += c.ChipEnergyJ
	}
	// All four cores busy for 50 ms: total chip maintenance energy = 6 W
	// × 50 ms = 0.3 J, split about evenly.
	if math.Abs(chipTotal-0.3)/0.3 > 0.10 {
		t.Fatalf("chip energy total = %.4f J, want ≈0.3 J", chipTotal)
	}
	for i, c := range conts {
		if math.Abs(c.ChipEnergyJ-0.075)/0.075 > 0.25 {
			t.Errorf("container %d chip share %.4f J, want ≈0.075 J", i, c.ChipEnergyJ)
		}
	}
}

func TestCoreOnlyApproachSkipsChipShare(t *testing.T) {
	k, f := newRig(t, quadSpec, Config{Approach: ApproachCoreOnly})
	cont := f.NewContainer("req")
	k.Spawn("w", kernel.Script(kernel.Compute(20e6, cpu.Activity{IPC: 1})), cont)
	k.Eng.Run()
	if cont.ChipEnergyJ != 0 {
		t.Fatalf("core-only attribution recorded chip energy %.4f J", cont.ChipEnergyJ)
	}
}

func TestBackgroundAbsorbsUnboundTasks(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	k.Spawn("daemon", kernel.Script(kernel.Compute(10e6, cpu.Activity{IPC: 1})), nil)
	k.Eng.Run()
	if f.Background.CPUEnergyJ <= 0 {
		t.Fatal("background container got no energy")
	}
	if f.TotalAccountedEnergyJ() != f.Background.EnergyJ() {
		t.Fatal("total accounted should equal background for unbound-only run")
	}
}

func TestRefcountLifecycle(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	cont := f.NewContainer("req")
	if cont.Refs() != 0 || cont.Released {
		t.Fatal("fresh container state wrong")
	}
	done := make(chan struct{})
	_ = done
	task := k.Spawn("w", kernel.Script(
		kernel.Compute(1e6, cpu.Activity{IPC: 1}),
		kernel.Fork("child", kernel.Script(
			kernel.Compute(1e6, cpu.Activity{IPC: 1}),
		)),
		kernel.WaitChild(),
	), cont)
	_ = task
	k.Eng.RunUntil(100 * sim.Microsecond)
	if cont.Refs() < 1 {
		t.Fatalf("refs = %d while running", cont.Refs())
	}
	k.Eng.Run()
	if cont.Refs() != 0 || !cont.Released {
		t.Fatalf("container not released after all tasks exited: refs=%d released=%v",
			cont.Refs(), cont.Released)
	}
}

func TestBindTransfersAttribution(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	a := f.NewContainer("reqA")
	b := f.NewContainer("reqB")
	l := kernel.NewListener("in")
	step := 0
	k.Spawn("server", kernel.FuncProgram(func(k *kernel.Kernel, t *kernel.Task) kernel.Op {
		step++
		switch step {
		case 1, 3:
			return kernel.RecvListener(l)
		case 2, 4:
			return kernel.Compute(10e6, cpu.Activity{IPC: 1})
		}
		return kernel.Exit()
	}), nil)
	k.Inject(l, 100, a, nil)
	k.Eng.After(30*sim.Millisecond, func() { k.Inject(l, 100, b, nil) })
	k.Eng.Run()

	if a.CPUEnergyJ <= 0 || b.CPUEnergyJ <= 0 {
		t.Fatalf("both requests must receive energy: a=%.4f b=%.4f", a.CPUEnergyJ, b.CPUEnergyJ)
	}
	// Equal work → similar energy.
	if math.Abs(a.CPUEnergyJ-b.CPUEnergyJ)/a.CPUEnergyJ > 0.10 {
		t.Fatalf("unequal attribution: a=%.4f b=%.4f", a.CPUEnergyJ, b.CPUEnergyJ)
	}
}

func TestObserverCompensation(t *testing.T) {
	run := func(disable bool) float64 {
		kk, f := newRig(t, uniSpec, Config{DisableObserverComp: disable})
		cont := f.NewContainer("req")
		kk.Spawn("w", kernel.Script(kernel.Compute(100e6, cpu.Activity{IPC: 1})), cont)
		kk.Eng.Run()
		return cont.Counters.Instructions
	}
	withComp := run(false)
	without := run(true)
	// The run takes ~100 samples; each maintenance op injects 1656
	// instructions that compensation must remove.
	if without <= withComp {
		t.Fatalf("compensation did not reduce counted instructions: %g vs %g", withComp, without)
	}
	extra := without - withComp
	if extra < 50*1656 || extra > 250*1656 {
		t.Fatalf("compensated instruction count %g outside plausible maintenance range", extra)
	}
	// Compensated counts should be close to the task's true 100e6.
	if math.Abs(withComp-100e6)/100e6 > 0.01 {
		t.Fatalf("compensated instructions %g, want ≈100e6", withComp)
	}
}

func TestConditionerThrottlesHighPowerRequest(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	f.EnableConditioning(10) // 10 W active target, 1 core → 10 W budget
	hot := f.NewContainer("hot")
	// ~19 W unthrottled: must be throttled toward the 10 W budget.
	act := cpu.Activity{IPC: 1.5, LLCPC: 0.02, MemPC: 0.03}
	k.Spawn("w", kernel.Script(kernel.Compute(200e6, act)), hot)
	k.Eng.Run()

	if duty := hot.MeanDutyFraction(); duty > 0.85 {
		t.Fatalf("hot request duty %.2f, expected substantial throttling", duty)
	}
	if hot.OriginalMeanPowerW() < hot.MeanActivePowerW() {
		t.Fatalf("original power %.1f below observed %.1f", hot.OriginalMeanPowerW(), hot.MeanActivePowerW())
	}
}

func TestConditionerLeavesNormalRequestsAlone(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	f.EnableConditioning(20)
	cool := f.NewContainer("cool")
	k.Spawn("w", kernel.Script(kernel.Compute(100e6, cpu.Activity{IPC: 1})), cool)
	k.Eng.Run()
	if duty := cool.MeanDutyFraction(); duty < 0.99 {
		t.Fatalf("normal request throttled to duty %.2f", duty)
	}
}

func TestDeviceEnergyAttribution(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	cont := f.NewContainer("req")
	k.Spawn("w", kernel.Script(kernel.Disk(12e6)), cont) // ~0.104 s
	k.Eng.Run()
	wantJ := 1.7 * (0.004 + 12e6/120e6)
	if math.Abs(cont.DeviceEnergyJ-wantJ)/wantJ > 0.02 {
		t.Fatalf("device energy %.4f J, want ≈%.4f J", cont.DeviceEnergyJ, wantJ)
	}
}

func TestStageStatsPerTaskName(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	cont := f.NewContainer("req")
	k.Spawn("httpd", kernel.Script(
		kernel.Compute(10e6, cpu.Activity{IPC: 1}),
		kernel.Fork("latex", kernel.Script(
			kernel.Compute(5e6, cpu.Activity{IPC: 1}),
		)),
		kernel.WaitChild(),
	), cont)
	k.Eng.Run()
	stages := cont.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %v", stages)
	}
	byName := map[string]StageStat{}
	for _, s := range stages {
		byName[s.Task] = s
	}
	if byName["httpd"].CPUTime < byName["latex"].CPUTime {
		t.Fatal("httpd should have more busy time than latex")
	}
	if byName["latex"].MeanPowerW() <= 0 {
		t.Fatal("latex stage has no power")
	}
}

func TestTraceOnlyWhenEnabled(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	traced := f.NewContainer("traced")
	traced.EnableTrace()
	silent := f.NewContainer("silent")
	prog := func(c *Container) kernel.Program {
		return kernel.Script(
			kernel.Compute(1e6, cpu.Activity{IPC: 1}),
			kernel.Fork("child", kernel.Script(
				kernel.Compute(1e6, cpu.Activity{IPC: 1}),
			)),
			kernel.WaitChild(),
		)
	}
	k.Spawn("a", prog(traced), traced)
	k.Spawn("b", prog(silent), silent)
	k.Eng.Run()
	if len(traced.Trace) == 0 {
		t.Fatal("traced container has no events")
	}
	if len(silent.Trace) != 0 {
		t.Fatalf("silent container has %d events", len(silent.Trace))
	}
}

// TestUntracedHooksDoNotAllocate checks that with tracing off a rebind and
// a device operation on a running task allocate nothing once its stage
// exists (the warm-up call opens it): the trace details those hooks
// describe are built only for traced containers.
func TestUntracedHooksDoNotAllocate(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	req := f.NewContainer("req")
	task := k.Spawn("server", kernel.Script(kernel.Compute(1e12, cpu.Activity{IPC: 1})), nil)
	k.Eng.RunUntil(10 * sim.Millisecond)
	if task.Core() < 0 {
		t.Fatal("task is not running")
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.OnBind(task, req)
		f.OnIO(task, kernel.DeviceDisk, 4096, sim.Millisecond, testProfile.DiskW)
	})
	if allocs != 0 {
		t.Fatalf("untraced OnBind+OnIO allocate %v objects per call, want 0", allocs)
	}
}

func TestSampleNowAndRewind(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	cont := f.NewContainer("req")
	k.Spawn("w", kernel.Script(kernel.Compute(1e9, cpu.Activity{IPC: 1})), cont)
	k.Eng.RunUntil(5 * sim.Millisecond)
	before := cont.CPUEnergyJ
	k.Cores[0].AdvanceBusy(sim.Millisecond, cpu.Activity{IPC: 1})
	f.RewindBaseline(0, sim.Millisecond)
	f.SampleNow(0)
	if cont.CPUEnergyJ <= before {
		t.Fatal("SampleNow did not attribute the emulated period")
	}
}

func TestApproachStrings(t *testing.T) {
	if ApproachCoreOnly.String() != "core-only" ||
		ApproachChipShare.String() != "chip-share" ||
		ApproachRecalibrated.String() != "recalibrated" {
		t.Fatal("approach names wrong")
	}
	if KindRequest.String() != "request" || KindBackground.String() != "background" {
		t.Fatal("kind names wrong")
	}
}

func TestContainersListAndLabels(t *testing.T) {
	_, f := newRig(t, uniSpec, Config{})
	a := f.NewContainer("x")
	b := f.NewContainer("y")
	all := f.Containers()
	if len(all) != 3 { // background + 2
		t.Fatalf("containers = %d", len(all))
	}
	if a.ID == b.ID {
		t.Fatal("duplicate container ids")
	}
}

// TestAttributionConservation is a property test: across random concurrent
// workloads, the sum of attributed CPU time over ALL containers (requests +
// background) must equal total core busy time, and attributed energy must
// stay within the model's bounds — no cycles and no joules are lost or
// double-counted by the facility.
func TestAttributionConservation(t *testing.T) {
	trial := func(seed uint64) {
		eng := sim.NewEngine()
		k, err := kernel.New("cons", quadSpec, testProfile, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := Attach(k, trueCoeff, Config{Approach: ApproachChipShare})
		rng := sim.NewRand(seed)

		var wantBusy sim.Time
		nTasks := 1 + rng.Intn(8)
		for i := 0; i < nTasks; i++ {
			cycles := float64(1+rng.Intn(40000)) * 1e3
			// quadSpec runs at 1 GHz with no stalls for IPC-only work.
			wantBusy += sim.Time(cycles)
			var ctx kernel.Context
			if rng.Intn(3) > 0 {
				ctx = f.NewContainer("req")
			}
			k.Spawn("t", kernel.Script(kernel.Compute(cycles, cpu.Activity{IPC: 1 + rng.Float64()})), ctx)
		}
		eng.Run()

		var gotBusy sim.Time
		var gotEnergy float64
		for _, c := range f.Containers() {
			gotBusy += c.CPUTime
			gotEnergy += c.CPUEnergyJ
		}
		// Whole-nanosecond segment rounding can add ≤ a few ns per
		// segment; the busy totals must agree to within 0.1%.
		diff := float64(gotBusy - wantBusy)
		if diff < 0 {
			diff = -diff
		}
		if diff/float64(wantBusy) > 0.001 {
			t.Fatalf("seed %d: attributed busy %v != executed %v", seed, gotBusy, wantBusy)
		}
		if gotEnergy <= 0 {
			t.Fatalf("seed %d: no energy attributed", seed)
		}
		// Energy bound: every attributed watt is ≤ the model's max for
		// the highest activity plus full chip share.
		maxP := trueCoeff.EstimateCPU(model.Metrics{Core: 1, Ins: 2, Chip: 1})
		if gotEnergy > maxP*float64(gotBusy)/1e9 {
			t.Fatalf("seed %d: energy %.4f exceeds model bound", seed, gotEnergy)
		}
	}
	for seed := uint64(1); seed <= 30; seed++ {
		trial(seed)
	}
}

func TestAnomalyDetectorFlagsPowerVirus(t *testing.T) {
	k, f := newRig(t, quadSpec, Config{Approach: ApproachChipShare})
	det := f.EnableAnomalyDetection()
	det.MinSamples = 50

	normalAct := cpu.Activity{IPC: 1}
	virusAct := cpu.Activity{IPC: 1.5, LLCPC: 0.02, MemPC: 0.03} // ~19 W

	// A steady population of normal requests...
	for i := 0; i < 8; i++ {
		c := f.NewContainer("normal")
		k.Spawn("w", kernel.Script(kernel.Compute(40e6, normalAct)), c)
	}
	// ...then a virus arrives mid-run.
	virus := f.NewContainer("virus")
	k.Eng.After(40*sim.Millisecond, func() {
		k.Spawn("v", kernel.Script(kernel.Compute(60e6, virusAct)), virus)
	})
	k.Eng.Run()

	fired := det.Anomalies()
	if len(fired) == 0 {
		t.Fatal("virus not detected")
	}
	for _, a := range fired {
		if a.Container != virus {
			t.Fatalf("false positive: flagged %s at %.1f W (baseline %.1f±%.1f)",
				a.Container.Label, a.PowerW, a.BaselineW, a.SigmaW)
		}
	}
	if n := len(fired); n != 1 {
		t.Fatalf("anomaly log = %d entries, want exactly one per container", n)
	}
	mean, sigma := det.Baseline()
	if mean <= 0 || sigma < 0 {
		t.Fatalf("baseline %g ± %g", mean, sigma)
	}
}

func TestAnomalyDetectorIgnoresBackground(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{})
	det := f.EnableAnomalyDetection()
	det.MinSamples = 5
	// Unbound (background) high-power work must not be flagged: the
	// detector targets request principals.
	k.Spawn("daemon", kernel.Script(kernel.Compute(100e6, cpu.Activity{IPC: 1.5, LLCPC: 0.02, MemPC: 0.03})), nil)
	k.Eng.Run()
	if len(det.Anomalies()) != 0 {
		t.Fatal("background activity flagged as request anomaly")
	}
}

func TestConditionerWithSixteenDutyLevels(t *testing.T) {
	// Intel exposes duty multipliers of 1/8 or 1/16 (§3.4); the
	// conditioner must work at either granularity.
	spec := uniSpec
	spec.Name = "Uni16"
	spec.DutyLevels = 16
	eng := sim.NewEngine()
	k, err := kernel.New("t16", spec, testProfile, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := Attach(k, trueCoeff, Config{})
	f.EnableConditioning(10)
	hot := f.NewContainer("hot")
	act := cpu.Activity{IPC: 1.5, LLCPC: 0.02, MemPC: 0.03}
	k.Spawn("w", kernel.Script(kernel.Compute(200e6, act)), hot)
	eng.Run()
	duty := hot.MeanDutyFraction()
	if duty > 0.85 {
		t.Fatalf("16-level conditioner did not throttle: duty %.2f", duty)
	}
	// Finer granularity settles close to the budget: observed power must
	// end near 10 W.
	if p := hot.MeanActivePowerW(); p < 8 || p > 13.5 {
		t.Fatalf("throttled power %.1f W, want near the 10 W budget", p)
	}
}
