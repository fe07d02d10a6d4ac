package workload

import (
	"math"
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

func newRig(t *testing.T, spec cpu.MachineSpec) (*kernel.Kernel, *core.Facility) {
	t.Helper()
	eng := sim.NewEngine()
	profile := power.MustProfile(spec)
	k, err := kernel.New("test", spec, profile, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients resembling the offline-calibrated SandyBridge model
	// (the fitted mem term absorbs part of the hidden synergy).
	coeff := model.Coefficients{Core: 6, Ins: 1.5, Cache: 130, Mem: 950, Chip: 5, Disk: 1.7, Net: 5.8, IncludesChipShare: true}
	fac := core.Attach(k, coeff, core.Config{Approach: core.ApproachChipShare})
	return k, fac
}

// runWorkload deploys wl at a modest open-loop rate and returns completions.
func runWorkload(t *testing.T, wl Workload, d sim.Time) []*server.Request {
	t.Helper()
	k, fac := newRig(t, cpu.SandyBridge)
	rng := sim.NewRand(9)
	dep := wl.Deploy(k, rng)
	gen := server.NewLoadGen(k, fac, dep)
	rate := 0.4 * float64(cpu.SandyBridge.Cores()) / dep.MeanServiceSec
	gen.RunOpenLoop(rate, d, rng.Fork(2))
	k.Eng.RunUntil(d + sim.Second)
	return gen.Completed()
}

func TestAllWorkloadsComplete(t *testing.T) {
	wls := []Workload{RSA{}, Solr{}, WeBWorK{}, Stress{}, GAE{}, GAE{VirusLoadFraction: 0.5}}
	for _, wl := range wls {
		wl := wl
		t.Run(wl.Name(), func(t *testing.T) {
			done := runWorkload(t, wl, 3*sim.Second)
			if len(done) < 5 {
				t.Fatalf("%s completed only %d requests", wl.Name(), len(done))
			}
			for _, r := range done[:5] {
				if r.Cont.EnergyJ() <= 0 {
					t.Fatalf("%s request %s has zero energy", wl.Name(), r.Type)
				}
				if r.ResponseTime() <= 0 {
					t.Fatalf("%s request has zero response time", wl.Name())
				}
			}
		})
	}
}

func TestRSAKeyMix(t *testing.T) {
	done := runWorkload(t, RSA{}, 3*sim.Second)
	seen := map[string]int{}
	for _, r := range done {
		seen[r.Type]++
	}
	for _, k := range []string{"rsa/512", "rsa/1024", "rsa/2048"} {
		if seen[k] == 0 {
			t.Fatalf("key class %s never drawn (seen %v)", k, seen)
		}
	}
	only := runWorkload(t, RSA{OnlyLargestKey: true}, 3*sim.Second)
	for _, r := range only {
		if r.Type != "rsa/2048" {
			t.Fatalf("OnlyLargestKey drew %s", r.Type)
		}
	}
}

func TestRSAEnergyScalesWithKeySize(t *testing.T) {
	done := runWorkload(t, RSA{}, 4*sim.Second)
	mean := map[string]*struct {
		sum float64
		n   int
	}{}
	for _, r := range done {
		m := mean[r.Type]
		if m == nil {
			m = &struct {
				sum float64
				n   int
			}{}
			mean[r.Type] = m
		}
		m.sum += r.Cont.EnergyJ()
		m.n++
	}
	e := func(k string) float64 { return mean[k].sum / float64(mean[k].n) }
	if !(e("rsa/512") < e("rsa/1024") && e("rsa/1024") < e("rsa/2048")) {
		t.Fatalf("energy ordering broken: %g %g %g", e("rsa/512"), e("rsa/1024"), e("rsa/2048"))
	}
}

func TestWeBWorKStagesAppear(t *testing.T) {
	done := runWorkload(t, WeBWorK{}, 4*sim.Second)
	if len(done) == 0 {
		t.Fatal("no WeBWorK requests")
	}
	stages := map[string]bool{}
	for _, s := range done[0].Cont.Stages() {
		stages[s.Task] = true
	}
	for _, want := range []string{"apache", "httpd", "mysqld", "sh", "latex", "dvipng"} {
		if !stages[want] {
			t.Fatalf("stage %s missing from request (got %v)", want, stages)
		}
	}
	if !strings.HasPrefix(done[0].Type, "webwork/p") {
		t.Fatalf("request type %q not per-problem", done[0].Type)
	}
}

func TestProblemDifficultyProperties(t *testing.T) {
	var sum float64
	for i := 0; i < NumProblems; i++ {
		d := ProblemDifficulty(i)
		if d < 0.2 || d > 2.8 {
			t.Fatalf("difficulty %d = %g out of range", i, d)
		}
		sum += d
	}
	mean := sum / NumProblems
	if mean < 0.9 || mean > 1.15 {
		t.Fatalf("catalog mean difficulty %g, want ≈1.0", mean)
	}
	// The top-10 prefix is distinctly harder than the catalog mean.
	var topSum float64
	for i := 0; i < 10; i++ {
		topSum += ProblemDifficulty(i)
	}
	if topSum/10 < mean*1.15 {
		t.Fatalf("top-10 mean %g not distinct from catalog mean %g", topSum/10, mean)
	}
	w := ProblemWeights()
	if len(w) != NumProblems || w[0] <= w[100] {
		t.Fatal("weights not Zipf-decreasing")
	}
	if ProblemLabel(7) != "webwork/p0007" {
		t.Fatalf("label = %s", ProblemLabel(7))
	}
}

func TestGAEReadWriteRatio(t *testing.T) {
	done := runWorkload(t, GAE{}, 4*sim.Second)
	reads, writes := 0, 0
	for _, r := range done {
		switch r.Type {
		case "vosao/read":
			reads++
		case "vosao/write":
			writes++
		default:
			t.Fatalf("unexpected type %s in pure Vosao", r.Type)
		}
	}
	frac := float64(reads) / float64(reads+writes)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("read fraction %.2f, want ≈0.9", frac)
	}
}

func TestGAEHybridLoadSplit(t *testing.T) {
	done := runWorkload(t, GAE{VirusLoadFraction: 0.5}, 6*sim.Second)
	var virusCPU, vosaoCPU float64
	for _, r := range done {
		sec := float64(r.Cont.CPUTime) / float64(sim.Second)
		if r.Type == "gae/virus" {
			virusCPU += sec
		} else {
			vosaoCPU += sec
		}
	}
	frac := virusCPU / (virusCPU + vosaoCPU)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("virus busy-time fraction %.2f, want ≈0.5", frac)
	}
}

func TestVirusIsHighestPower(t *testing.T) {
	done := runWorkload(t, GAE{VirusLoadFraction: 0.5}, 6*sim.Second)
	var virus, vosao struct {
		sum float64
		n   int
	}
	for _, r := range done {
		if r.Type == "gae/virus" {
			virus.sum += r.Cont.MeanActivePowerW()
			virus.n++
		} else {
			vosao.sum += r.Cont.MeanActivePowerW()
			vosao.n++
		}
	}
	if virus.n == 0 || vosao.n == 0 {
		t.Fatal("missing classes")
	}
	if virus.sum/float64(virus.n) < 1.25*vosao.sum/float64(vosao.n) {
		t.Fatalf("virus power %.1f not clearly above vosao %.1f",
			virus.sum/float64(virus.n), vosao.sum/float64(vosao.n))
	}
}

func TestGAEBackgroundTasksRun(t *testing.T) {
	k, fac := newRig(t, cpu.SandyBridge)
	SpawnGAEBackground(k)
	k.Eng.RunUntil(500 * sim.Millisecond)
	if fac.Background.CPUEnergyJ <= 0 {
		t.Fatal("background tasks produced no energy")
	}
	util := float64(fac.Background.CPUTime) / float64(500*sim.Millisecond)
	if util < 0.8 || util > 1.8 { // two tasks at ~60-65% each
		t.Fatalf("background utilization %.2f cores, want ≈1.2", util)
	}
}

func TestMicroBenchUtilization(t *testing.T) {
	for _, util := range []float64{1.0, 0.5, 0.25} {
		k, fac := newRig(t, cpu.SandyBridge)
		MicroBenches()[0].SpawnLoop(k, 4, util)
		k.Eng.RunUntil(2 * sim.Second)
		got := float64(fac.Background.CPUTime) / float64(2*sim.Second) / 4
		if math.Abs(got-util) > 0.08 {
			t.Fatalf("target util %.2f, achieved %.2f", util, got)
		}
	}
}

// TestMicroBenchLoopDoesNotAllocatePerOp checks a microbenchmark loop hands
// the kernel its fixed ops without allocating: at half load on four cores
// the loop issues about 400 ops per 100 ms (four per iteration, about 25
// iterations per task), and boxing a fresh op on each would allocate as
// often. What remains is the engine's and recorder's amortized growth.
func TestMicroBenchLoopDoesNotAllocatePerOp(t *testing.T) {
	for _, mb := range MicroBenches() {
		if mb.DiskBytes > 0 || mb.NetBytes > 0 {
			continue // device I/O has allocations of its own
		}
		eng := sim.NewEngine()
		k, err := kernel.New("test", cpu.SandyBridge, power.MustProfile(cpu.SandyBridge), eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		mb.SpawnLoop(k, cpu.SandyBridge.Cores(), 0.5)
		eng.RunUntil(500 * sim.Millisecond)
		allocs := testing.AllocsPerRun(10, func() { eng.RunUntil(eng.Now() + 100*sim.Millisecond) })
		if allocs > 40 {
			t.Errorf("%s: %v allocations per 100 ms of loop, want at most 40", mb.Name, allocs)
		}
	}
}

func TestMicroBenchIOVariantsTouchDevices(t *testing.T) {
	k, fac := newRig(t, cpu.SandyBridge)
	for _, mb := range MicroBenches() {
		if mb.DiskBytes > 0 || mb.NetBytes > 0 {
			mb.SpawnLoop(k, 1, 0.5)
		}
	}
	k.Eng.RunUntil(2 * sim.Second)
	if fac.Background.DeviceEnergyJ <= 0 {
		t.Fatal("I/O benches attributed no device energy")
	}
}

func TestMeanServiceSecReasonable(t *testing.T) {
	k, _ := newRig(t, cpu.SandyBridge)
	rng := sim.NewRand(1)
	for _, wl := range []Workload{RSA{}, Solr{}, WeBWorK{}, Stress{}, GAE{}} {
		dep := wl.Deploy(k, rng)
		if dep.MeanServiceSec <= 0 || dep.MeanServiceSec > 1 {
			t.Fatalf("%s mean service %.3fs implausible", wl.Name(), dep.MeanServiceSec)
		}
	}
}

// TestEventServerUserTransferTracking verifies the §3.3 future-work
// extension: without trapping, user-level stage transfers are invisible and
// per-request attribution collapses; with TrapUserTransfers the facility
// follows the event loop across requests.
func TestEventServerUserTransferTracking(t *testing.T) {
	run := func(trap bool) (done []*server.Request) {
		k, fac := newRig(t, cpu.SandyBridge)
		k.TrapUserTransfers = trap
		rng := sim.NewRand(31)
		dep := EventServer{PhasesPerRequest: 4}.Deploy(k, rng)
		gen := server.NewLoadGen(k, fac, dep)
		// High load: the loops multiplex several requests, so user-level
		// transfers actually interleave different requests' phases.
		gen.RunOpenLoop(0.9*float64(cpu.SandyBridge.Cores())/dep.MeanServiceSec, 3*sim.Second, rng.Fork(2))
		k.Eng.RunUntil(4 * sim.Second)
		return gen.Completed()
	}

	trapped := run(true)
	if len(trapped) < 50 {
		t.Fatalf("only %d requests completed", len(trapped))
	}
	// With trapping, every request gets a plausible CPU-time attribution
	// (≈ its own phases) and the spread is modest.
	var mean float64
	for _, r := range trapped {
		mean += float64(r.Cont.CPUTime)
	}
	mean /= float64(len(trapped))
	outliers := 0
	for _, r := range trapped {
		ratio := float64(r.Cont.CPUTime) / mean
		if ratio < 0.25 || ratio > 4 {
			outliers++
		}
	}
	if frac := float64(outliers) / float64(len(trapped)); frac > 0.05 {
		t.Fatalf("trapped attribution has %.0f%% outliers", 100*frac)
	}

	// Without trapping, attribution collapses: many requests get almost
	// nothing while a few absorb their neighbours' phases.
	untracked := run(false)
	starved := 0
	for _, r := range untracked {
		if float64(r.Cont.CPUTime) < 0.25*mean {
			starved++
		}
	}
	if frac := float64(starved) / float64(len(untracked)); frac < 0.1 {
		t.Fatalf("expected substantial misattribution without trapping, starved frac %.2f", frac)
	}
}
