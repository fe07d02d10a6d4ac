package experiments

import (
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

func TestFig1IncrementalPowerShape(t *testing.T) {
	r, err := Fig1(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range r.Machines {
		inc := m.IncrementW
		if len(inc) != m.Spec.Cores() {
			t.Fatalf("%s: %d increments", m.Spec.Name, len(inc))
		}
		switch m.Spec.Name {
		case "SandyBridge":
			// First increment carries the chip maintenance power.
			if inc[0] < 1.3*inc[1] {
				t.Errorf("SandyBridge first increment %.1f not above later %.1f", inc[0], inc[1])
			}
		case "Woodcrest":
			// First two increments activate the two sockets.
			if inc[0] < 1.2*inc[2] || inc[1] < 1.2*inc[3] {
				t.Errorf("Woodcrest socket-activation increments not elevated: %v", inc)
			}
		}
	}
}

func TestFig2AlignmentFindsTrueDelays(t *testing.T) {
	r, err := Fig2(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.ChipPeak; d < 0 || d > 3*sim.Millisecond {
		t.Errorf("chip meter delay estimate %s, want ≈1ms", sim.FormatTime(d))
	}
	if d := r.WattsupPeak; d < sim.Second || d > 1400*sim.Millisecond {
		t.Errorf("wattsup delay estimate %s, want ≈1.2s", sim.FormatTime(d))
	}
	// Figure 3: the aligned traces must correlate strongly.
	var sx, sy, sxy, sxx, syy float64
	n := 0
	for i := range r.TraceMeasured {
		if r.TraceMeasured[i] == 0 {
			continue
		}
		x, y := r.TraceMeasured[i], r.TraceModeled[i]
		sx += x
		sy += y
		sxy += x * y
		sxx += x * x
		syy += y * y
		n++
	}
	if n < 100 {
		t.Fatalf("aligned trace too short: %d points", n)
	}
	fn := float64(n)
	cov := sxy - sx*sy/fn
	vx, vy := sxx-sx*sx/fn, syy-sy*sy/fn
	if corr := cov / (sqrt(vx) * sqrt(vy)); corr < 0.8 {
		t.Errorf("aligned trace correlation %.2f, want ≥0.8", corr)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations suffice for test purposes.
	g := x
	for i := 0; i < 40; i++ {
		g = (g + x/g) / 2
	}
	return g
}

func TestFig4CapturesMultiStageRequest(t *testing.T) {
	r, err := Fig4(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	var httpdJ, totalJ float64
	for _, s := range r.Stages {
		names[s.Task] = true
		totalJ += s.EnergyJ
		if s.Task == "httpd" {
			httpdJ = s.EnergyJ
		}
	}
	for _, want := range []string{"apache", "httpd", "mysqld", "sh", "latex", "dvipng"} {
		if !names[want] {
			t.Errorf("stage %s not captured", want)
		}
	}
	if httpdJ < 0.4*totalJ {
		t.Errorf("httpd energy %.2f J should dominate the %.2f J total", httpdJ, totalJ)
	}
	// Flow events include forks and socket binds.
	kinds := map[core.TraceEventKind]int{}
	for _, e := range r.Events {
		kinds[e.Kind]++
	}
	if kinds[core.TraceFork] < 3 || kinds[core.TraceBind] < 3 {
		t.Errorf("flow events incomplete: %v", kinds)
	}
}

func TestCoefficientsTableShape(t *testing.T) {
	r, err := Coefficients(cpu.SandyBridge)
	if err != nil {
		t.Fatal(err)
	}
	if r.Coeff.IdleW != 26.1 {
		t.Errorf("Cidle = %.1f, want 26.1", r.Coeff.IdleW)
	}
	// Utilization must be the dominant active power term, as in §4.1.
	coreIdx := 0
	for i, v := range r.CMmax {
		if v > r.CMmax[coreIdx] {
			coreIdx = i
		}
	}
	if coreIdx != 0 {
		t.Errorf("dominant C·Mmax is term %d, want core utilization", coreIdx)
	}
	if !strings.Contains(r.Render(), "Cidle") {
		t.Error("render missing Cidle row")
	}
}

func TestFig5SubsetRuns(t *testing.T) {
	r, err := Fig5(Fig5Options{
		Machines:  []cpu.MachineSpec{cpu.SandyBridge},
		Workloads: []workload.Workload{workload.RSA{}, workload.Stress{}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(r.Cells))
	}
	byKey := map[string]float64{}
	for _, c := range r.Cells {
		byKey[c.Workload+"/"+c.Load.String()] = c.ActiveW
		if c.ActiveW <= 0 || c.Throughput <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
	}
	if byKey["Stress/peak load"] <= byKey["RSA-crypto/peak load"] {
		t.Error("Stress should draw more power than RSA at peak")
	}
	if byKey["RSA-crypto/peak load"] <= byKey["RSA-crypto/half load"] {
		t.Error("peak load should draw more than half load")
	}
}

func TestFig6DistributionsBimodalForHybrid(t *testing.T) {
	r, err := Fig6(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var hybrid *Fig6Workload
	for i := range r.Workloads {
		if r.Workloads[i].Name == "GAE-Hybrid" {
			hybrid = &r.Workloads[i]
		}
	}
	if hybrid == nil {
		t.Fatal("GAE-Hybrid missing")
	}
	if len(hybrid.PowerModes) < 2 {
		t.Fatalf("hybrid power modes %v, want bimodal", hybrid.PowerModes)
	}
	lo, hi := hybrid.PowerModes[0], hybrid.PowerModes[len(hybrid.PowerModes)-1]
	if hi-lo < 2.5 {
		t.Fatalf("modes %v not separated (Vosao vs virus)", hybrid.PowerModes)
	}
	virus := hybrid.ByType["gae/virus"]
	vosao := hybrid.ByType["vosao/read"]
	if virus == nil || vosao == nil {
		t.Fatal("per-type stats missing")
	}
	// The recalibrated model's single shared mem coefficient compresses
	// the virus/Vosao gap relative to the paper's (~17 vs 9 W); the
	// separation must still be unmistakable.
	if virus.MeanPowerW.Mean() < 1.15*vosao.MeanPowerW.Mean() {
		t.Error("virus requests should be distinctly higher power")
	}
	if virus.MeanEnergyJ.Mean() < 4*vosao.MeanEnergyJ.Mean() {
		t.Error("virus requests should use far more energy")
	}
}

func TestFig8OrderingOnSandyBridge(t *testing.T) {
	r, err := Fig8(Fig8Options{
		Machines:  []cpu.MachineSpec{cpu.SandyBridge},
		Workloads: []workload.Workload{workload.Stress{}, workload.GAE{VirusLoadFraction: 0.5}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := r.WorstByApproach["SandyBridge"]
	if !(w[core.ApproachRecalibrated] < w[core.ApproachChipShare]) {
		t.Errorf("recalibration did not improve worst case: %v", w)
	}
	if w[core.ApproachCoreOnly] < 0.05 {
		t.Errorf("core-only worst case %.1f%% implausibly low", 100*w[core.ApproachCoreOnly])
	}
	if w[core.ApproachRecalibrated] > 0.10 {
		t.Errorf("recalibrated worst case %.1f%% too high", 100*w[core.ApproachRecalibrated])
	}
}

func TestFig9BackgroundShare(t *testing.T) {
	r, err := Fig9(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 2 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.BackgroundShare < 0.10 || c.BackgroundShare > 0.50 {
			t.Errorf("%s background share %.2f outside the 'about one third' band", c.Load, c.BackgroundShare)
		}
		if c.SumOfRequestsW <= 0 {
			t.Errorf("%s requests power missing", c.Load)
		}
	}
}

func TestFig10PredictionOrdering(t *testing.T) {
	r, err := Fig10Ex(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(r.Points))
	}
	// The paper's headline: per-request profiles predict well (≤ low
	// double digits), rate-proportional fails badly (up to ~56%).
	if r.WorstContainers > 0.15 {
		t.Errorf("containers worst error %.1f%%, want ≤15%%", 100*r.WorstContainers)
	}
	if r.WorstRate < 2.5*r.WorstContainers {
		t.Errorf("rate-proportional (%.1f%%) should fail much worse than containers (%.1f%%)",
			100*r.WorstRate, 100*r.WorstContainers)
	}
}

func TestFig11ConditioningFairness(t *testing.T) {
	r, err := Fig11(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakConditionedW >= r.PeakOriginalW {
		t.Errorf("conditioning did not cut the peak: %.1f vs %.1f", r.PeakConditionedW, r.PeakOriginalW)
	}
	if r.PeakConditionedW > r.TargetActiveW*1.05 {
		t.Errorf("conditioned peak %.1f W exceeds target %.1f W", r.PeakConditionedW, r.TargetActiveW)
	}
	if r.VirusSlowdown < 0.10 {
		t.Errorf("virus slowdown %.1f%%, want substantial", 100*r.VirusSlowdown)
	}
	if r.NormalSlowdown > 0.05 {
		t.Errorf("normal requests slowed %.1f%%, want ≈0", 100*r.NormalSlowdown)
	}
	if r.VirusSlowdown < 5*r.NormalSlowdown {
		t.Errorf("throttling not fair: virus %.2f vs normal %.2f", r.VirusSlowdown, r.NormalSlowdown)
	}
}

func TestFig13AffinitySpread(t *testing.T) {
	r, err := Fig13Ex(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratios := map[string]float64{}
	for _, row := range r.Rows {
		if row.Ratio <= 0 || row.Ratio >= 1 {
			t.Errorf("%s ratio %.2f outside (0,1)", row.Workload, row.Ratio)
		}
		ratios[row.Workload] = row.Ratio
	}
	if ratios["RSA-crypto"] > 0.3 {
		t.Errorf("RSA ratio %.2f, want ≤0.3 (paper 0.22)", ratios["RSA-crypto"])
	}
	if ratios["Stress"] < 2*ratios["RSA-crypto"] {
		t.Errorf("Stress ratio %.2f not well above RSA %.2f", ratios["Stress"], ratios["RSA-crypto"])
	}
}

func TestFig14SavingsAndResponseTimes(t *testing.T) {
	r, err := Fig14Ex(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != 3 {
		t.Fatalf("policies = %d", len(r.Policies))
	}
	if r.SavingVsSimple < 0.10 {
		t.Errorf("saving vs simple %.1f%%, want substantial (paper 30%%)", 100*r.SavingVsSimple)
	}
	if r.SavingVsMachineAware < 0.05 {
		t.Errorf("saving vs machine-aware %.1f%%, want substantial (paper 25%%)", 100*r.SavingVsMachineAware)
	}
	simple, machine, aware := r.Policies[0], r.Policies[1], r.Policies[2]
	// Table 1: simple balance overloads the slow machine; the aware
	// policies keep both healthy.
	for _, app := range []string{"GAE-Vosao", "RSA-crypto"} {
		if simple.RespMs[app] < 3*machine.RespMs[app] {
			t.Errorf("%s: simple %.0f ms not clearly worse than machine-aware %.0f ms",
				app, simple.RespMs[app], machine.RespMs[app])
		}
		if aware.RespMs[app] > 200 {
			t.Errorf("%s: workload-aware response %.0f ms unhealthy", app, aware.RespMs[app])
		}
	}
	// The workload-aware policy must pin the low-ratio app (RSA) to the
	// efficient machine.
	if aware.Dispatched[1]["RSA-crypto"] > aware.Dispatched[0]["RSA-crypto"]/10 {
		t.Errorf("workload-aware leaked RSA to Woodcrest: %v", aware.Dispatched)
	}
}

func TestOverheadWithinPaperBallpark(t *testing.T) {
	r, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if r.MaintenanceNsPerOp <= 0 || r.MaintenanceNsPerOp > 5000 {
		t.Errorf("maintenance op %.0f ns implausible", r.MaintenanceNsPerOp)
	}
	if r.OverheadAtOneMs > 0.005 {
		t.Errorf("overhead %.3f%% at 1 ms sampling, want ≲0.1%%", 100*r.OverheadAtOneMs)
	}
	if r.RecalibrationNsPerFit <= 0 || r.RecalibrationNsPerFit > 2e6 {
		t.Errorf("refit %.0f ns implausible", r.RecalibrationNsPerFit)
	}
	if r.ObserverEnergyUJ < 1 || r.ObserverEnergyUJ > 30 {
		t.Errorf("maintenance energy %.1f µJ, paper ≈10 µJ", r.ObserverEnergyUJ)
	}
	if r.ContainerBytes == 0 {
		t.Error("container size missing")
	}
}

func TestRegistryResolvesAllIDs(t *testing.T) {
	for _, e := range Registry() {
		if _, err := Lookup(e.ID); err != nil {
			t.Errorf("lookup %s: %v", e.ID, err)
		}
		for _, a := range e.Aliases {
			if got, err := Lookup(a); err != nil || got.ID != e.ID {
				t.Errorf("alias %s: %v", a, err)
			}
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id resolved")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() float64 {
		r, err := Assembly{}.Run(cpu.SandyBridge, core.ApproachChipShare,
			RunSpec{Workload: workload.Solr{}, Load: HalfLoad}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return r.AccountedW
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical seeds diverged: %g vs %g", a, b)
	}
}

func TestCluster3ThreeTierHealthy(t *testing.T) {
	r, err := Cluster3Ex(Exec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != 3 {
		t.Fatalf("policies = %d", len(r.Policies))
	}
	simple, machine, aware := r.Policies[0], r.Policies[1], r.Policies[2]
	// Simple balance saturates the weakest tier; the aware policies must
	// keep every app healthy thanks to the capacity-aware plan and the
	// rebalance pass.
	for _, app := range []string{"GAE-Vosao", "RSA-crypto"} {
		if simple.RespMs[app] < 400 {
			t.Errorf("%s: simple balance unexpectedly healthy (%.0f ms)", app, simple.RespMs[app])
		}
		if machine.RespMs[app] > 200 || aware.RespMs[app] > 200 {
			t.Errorf("%s: aware policies unhealthy (%.0f / %.0f ms)",
				app, machine.RespMs[app], aware.RespMs[app])
		}
	}
	if aware.TotalW >= simple.TotalW {
		t.Errorf("workload-aware %.1f W not below simple %.1f W", aware.TotalW, simple.TotalW)
	}
	// Every app's per-node energy profile exists on all three machines.
	for app, e := range r.Energy {
		if len(e) != 3 {
			t.Fatalf("%s energy profile has %d nodes", app, len(e))
		}
	}
}

// TestRendersDoNotPanic exercises every result's text rendering on cheap
// runs; pcbench depends on these formats.
func TestRendersDoNotPanic(t *testing.T) {
	check := func(name string, r Renderable, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out := r.Render(); len(out) < 40 {
			t.Fatalf("%s render too short:\n%s", name, out)
		}
	}
	r1, err := Fig1(Exec{}, 2)
	check("fig1", r1, err)
	r2, err := Fig2(Exec{}, 2)
	check("fig2", r2, err)
	r4, err := Fig4(Exec{}, 2)
	check("fig4", r4, err)
	rc, err := Coefficients(cpu.Westmere)
	check("coeffs", rc, err)
	r5, err := Fig5(Fig5Options{
		Machines:  []cpu.MachineSpec{cpu.SandyBridge},
		Workloads: []workload.Workload{workload.Solr{}},
	}, 2)
	check("fig5", r5, err)
	r6, err := Fig6(Exec{}, 2)
	check("fig6", r6, err)
	r9, err := Fig9(Exec{}, 2)
	check("fig9", r9, err)
	ri, err := Intro(Exec{}, 2)
	check("intro", ri, err)
	ra, err := AblationsEx(Exec{}, 2)
	check("ablations", ra, err)
	ro, err := Overhead()
	check("overhead", ro, err)
}
