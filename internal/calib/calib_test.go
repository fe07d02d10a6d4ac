package calib

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/power"
	"powercontainers/internal/runner"
)

// fastConfig shortens windows for unit tests; bounds stay aligned to the
// Wattsup meter's one-second windows.
func fastConfig() Config { return Config{Seed: 1, WarmupSec: 1.0, WindowSec: 1.0} }

func TestCalibrateSandyBridge(t *testing.T) {
	res, err := Calibrate(cpu.SandyBridge, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Eq1: %v (fit err %.1f%%)", res.Eq1, 100*res.FitErrEq1)
	t.Logf("Eq2: %v (fit err %.1f%%)", res.Eq2, 100*res.FitErrEq2)
	t.Logf("Mmax: %+v", res.Mmax)
	p := power.MustProfile(cpu.SandyBridge)

	if res.IdleW != p.MachineIdleW {
		t.Errorf("IdleW = %g, want %g", res.IdleW, p.MachineIdleW)
	}
	if len(res.Samples) != 32 {
		t.Fatalf("samples = %d, want 8 benches × 4 loads", len(res.Samples))
	}
	// The Eq. 2 fit should recover the hidden linear terms reasonably:
	// the utilization coefficient near CoreW, the chip-share coefficient
	// near the chip maintenance power.
	if math.Abs(res.Eq2.Core-p.CoreW) > 0.35*p.CoreW {
		t.Errorf("Eq2 core coefficient %.2f far from hidden CoreW %.2f", res.Eq2.Core, p.CoreW)
	}
	if math.Abs(res.Eq2.Chip-p.ChipMaintW) > 0.5*p.ChipMaintW {
		t.Errorf("Eq2 chip coefficient %.2f far from hidden maintenance %.2f", res.Eq2.Chip, p.ChipMaintW)
	}
	// Eq. 2 must fit the calibration set better than Eq. 1 (which has no
	// column for maintenance power).
	if res.FitErrEq2 >= res.FitErrEq1 {
		t.Errorf("Eq2 fit error %.3f not better than Eq1 %.3f", res.FitErrEq2, res.FitErrEq1)
	}
	if res.FitErrEq2 > 0.08 {
		t.Errorf("Eq2 calibration fit error %.1f%% too high", 100*res.FitErrEq2)
	}
	// SandyBridge carries the on-chip meter: package targets present.
	for i, s := range res.Samples {
		if math.IsNaN(s.PkgActiveW) {
			t.Fatalf("sample %d missing package power", i)
		}
	}
}

func TestCalibrateAllMachinesHaveSaneCoefficients(t *testing.T) {
	for _, spec := range cpu.Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := Calibrate(spec, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s Eq2: %v (fit err %.1f%%)", spec.Name, res.Eq2, 100*res.FitErrEq2)
			if res.Eq2.Core <= 0 {
				t.Errorf("non-positive core coefficient %g", res.Eq2.Core)
			}
			if res.Eq2.Chip <= 0 {
				t.Errorf("non-positive chip-share coefficient %g", res.Eq2.Chip)
			}
			if res.FitErrEq2 > 0.10 {
				t.Errorf("fit error %.1f%% too high", 100*res.FitErrEq2)
			}
			if HasChipMeter(spec) != (spec.Name == "SandyBridge") {
				t.Error("chip meter presence wrong")
			}
			if !math.IsNaN(res.Samples[0].PkgActiveW) && spec.Name != "SandyBridge" {
				t.Error("non-SandyBridge machine has package measurements")
			}
			// Mmax sanity: utilization can't exceed the core count.
			// The summed chip share may transiently exceed the chip
			// count — Eq. 3 reads stale sibling samples without
			// synchronization — but not wildly.
			if res.Mmax.Core > float64(spec.Cores())+0.01 {
				t.Errorf("Mmax.Core = %g exceeds core count", res.Mmax.Core)
			}
			if res.Mmax.Chip > 1.6*float64(spec.Chips) {
				t.Errorf("Mmax.Chip = %g far above chip count %d", res.Mmax.Chip, spec.Chips)
			}
		})
	}
}

// fingerprint hashes every float of a calibration result by its bit
// pattern (SHA-256 over little-endian math.Float64bits): each sample's
// metric vector, MachineActiveW, PkgActiveW and Weight, then Eq1's vector
// and IdleW, Eq2's vector and IdleW, Mmax's vector, and finally IdleW,
// FitErrEq1 and FitErrEq2. Bit patterns, not ==, because PkgActiveW is NaN
// off SandyBridge.
func fingerprint(r *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	for _, s := range r.Samples {
		put(s.M.Vector()...)
		put(s.MachineActiveW, s.PkgActiveW, s.Weight)
	}
	put(r.Eq1.Vector()...)
	put(r.Eq1.IdleW)
	put(r.Eq2.Vector()...)
	put(r.Eq2.IdleW)
	put(r.Mmax.Vector()...)
	put(r.IdleW, r.FitErrEq1, r.FitErrEq2)
	return hex.EncodeToString(h.Sum(nil))
}

// withDefaultJobs runs f with the runner's process-default worker bound
// set to n, restoring the GOMAXPROCS default afterwards.
func withDefaultJobs(n int, f func()) {
	runner.SetDefaultJobs(n)
	defer runner.SetDefaultJobs(0)
	f()
}

// TestCalibrationPinned pins each machine's DefaultConfig calibration to
// the fingerprint of the serial sweep the parallel plan replaced, at the
// serial bound and at GOMAXPROCS.
func TestCalibrationPinned(t *testing.T) {
	want := map[string]string{
		"SandyBridge": "b973fad2a48c39060b261a3a4fb8024ff0306878c705430a0eb97716f5f7a81b",
		"Westmere":    "03cf48d84c422d0f2dfbb8b37c8571c82ab0dff40e75ac695a2c9d1571304fc6",
		"Woodcrest":   "5111730b72e5533e001ad338b86a91ab5a4f1391e8625c470d4dfde70c844698",
	}
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, spec := range cpu.Specs() {
			withDefaultJobs(jobs, func() {
				res, err := Calibrate(spec, DefaultConfig())
				if err != nil {
					t.Fatalf("%s at jobs=%d: %v", spec.Name, jobs, err)
				}
				if got := fingerprint(res); got != want[spec.Name] {
					t.Errorf("%s at jobs=%d: fingerprint %s, want %s", spec.Name, jobs, got, want[spec.Name])
				}
			})
		}
	}
}

// TestCalibrationDeterminism calibrates at worker bounds 1, 3 and
// GOMAXPROCS, and from inside an outer runner job (calibration's pool
// then nests inside that job's), and requires the full result to be
// bit-identical every time.
func TestCalibrationDeterminism(t *testing.T) {
	var ref string
	check := func(how string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		got := fingerprint(res)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("%s: fingerprint %s, want %s", how, got, ref)
		}
	}
	for _, jobs := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		withDefaultJobs(jobs, func() {
			res, err := Calibrate(cpu.SandyBridge, fastConfig())
			check(fmt.Sprintf("jobs=%d", jobs), res, err)
		})
	}
	// The sibling job makes the outer plan run on pool workers, not
	// inline, so the calibration's own pool starts inside one of them.
	var plan runner.Plan
	plan.Add("outer", func() (any, error) { return Calibrate(cpu.SandyBridge, fastConfig()) })
	plan.Add("sibling", func() (any, error) { return nil, nil })
	out, err := runner.Run(&plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("nested in a runner job", out[0].(*Result), nil)
}

// TestCalibrationErrorText checks a failing configuration reports the
// same calib-prefixed error at every worker bound: the first failure in
// plan order, not the runner's job wrapping. A half-second window holds
// no whole one-second Wattsup sample, so every configuration fails.
func TestCalibrationErrorText(t *testing.T) {
	cfg := Config{Seed: 1, WarmupSec: 1, WindowSec: 0.5}
	const want = "calib: cpu-spin@100%: power: no wattsup samples in [1.000s,1.500s)"
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		withDefaultJobs(jobs, func() {
			_, err := Calibrate(cpu.Woodcrest, cfg)
			if err == nil || err.Error() != want {
				t.Errorf("jobs=%d: error %v, want %q", jobs, err, want)
			}
		})
	}
}
