package experiments

import (
	"sync"
	"testing"

	"powercontainers/internal/calib"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// TestParallelMatchesSerial is the determinism contract of the runner
// refactor: a plan-decomposed experiment renders byte-identically whether
// its jobs run one at a time or fan out across eight workers.
func TestParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name   string
		render func(jobs int) (string, error)
	}{
		{"fig5", func(jobs int) (string, error) {
			r, err := Fig5(Fig5Options{
				Machines:  []cpu.MachineSpec{cpu.Woodcrest},
				Workloads: []workload.Workload{workload.Stress{}, workload.RSA{}},
				Exec:      Exec{Jobs: jobs},
			}, 7)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig8", func(jobs int) (string, error) {
			r, err := Fig8(Fig8Options{
				Machines:  []cpu.MachineSpec{cpu.SandyBridge},
				Workloads: []workload.Workload{workload.Stress{}},
				Exec:      Exec{Jobs: jobs},
			}, 7)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ablations", func(jobs int) (string, error) {
			r, err := AblationsEx(Exec{Jobs: jobs}, 7)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		// A hierarchical plan: per-tenant accounting and budget
		// enforcement must replay identically regardless of worker count.
		{"tenantmix", func(jobs int) (string, error) {
			r, err := TenantMixEx(Exec{Jobs: jobs}, 7)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		// A faulted plan: injected fault streams, robust rejection, and
		// the reduction against the fault-free baseline must all replay
		// identically regardless of worker count.
		{"faultmatrix", func(jobs int) (string, error) {
			r, err := FaultMatrix(FaultMatrixOptions{
				Rates: []float64{0, 0.10, 0.20},
				Exec:  Exec{Jobs: jobs},
			}, 7)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		// Profiling cells fan out on the runner; each policy's plan then
		// executes on the one engine both machines share.
		{"fig14", func(jobs int) (string, error) {
			r, err := Fig14Ex(Exec{Jobs: jobs}, 7)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serial, err := tc.render(1)
			if err != nil {
				t.Fatalf("jobs=1: %v", err)
			}
			parallel, err := tc.render(8)
			if err != nil {
				t.Fatalf("jobs=8: %v", err)
			}
			if serial != parallel {
				t.Errorf("rendering differs between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
					serial, parallel)
			}
		})
	}
}

// TestPerRunAuditIsolation runs two audited machines concurrently, each
// against its own collector, tampers with one, and requires the
// violations to land only in the tampered run's collector — never in the
// sibling's or the process default's.
func TestPerRunAuditIsolation(t *testing.T) {
	type outcome struct {
		c   *AuditCollector
		err error
	}
	runOne := func(seed uint64, tamper bool) outcome {
		c := NewAuditCollector(true)
		as := Assembly{Audit: c}
		m, err := as.NewMachine(cpu.SandyBridge, core.ApproachChipShare, seed)
		if err != nil {
			return outcome{c, err}
		}
		if m.Audit == nil {
			t.Error("enabled per-run collector did not attach an auditor")
			return outcome{c, nil}
		}
		if _, err := RunOn(m, RunSpec{
			Workload: workload.Stress{},
			Load:     HalfLoad,
			Window:   2 * sim.Second,
		}); err != nil {
			return outcome{c, err}
		}
		if tamper {
			// A ground-truth record with no matching recorder write is
			// what a broken accounting path would produce.
			m.Audit.OnRecord("core", 0, sim.Millisecond, 1e6)
			if err := m.FinalizeAudit(); err == nil {
				t.Error("tampered run finalized clean")
			}
		}
		return outcome{c, nil}
	}

	var wg sync.WaitGroup
	var clean, tampered outcome
	wg.Add(2)
	go func() { defer wg.Done(); clean = runOne(41, false) }()
	go func() { defer wg.Done(); tampered = runOne(43, true) }()
	wg.Wait()

	if clean.err != nil {
		t.Fatalf("clean run: %v", clean.err)
	}
	if tampered.err != nil {
		t.Fatalf("tampered run: %v", tampered.err)
	}
	if vs := clean.c.Violations(); len(vs) != 0 {
		t.Errorf("clean run's collector picked up %d violations: %v", len(vs), vs)
	}
	if vs := tampered.c.Violations(); len(vs) == 0 {
		t.Error("tampered run's collector saw no violations")
	}
	if vs := DefaultAudit().Violations(); len(vs) != 0 {
		t.Errorf("process-default collector picked up %d violations from per-run machines: %v", len(vs), vs)
	}
}

// TestPCAuditEnvCompat covers the PC_AUDIT=1 compatibility path: the
// process default enables, machines assembled without an explicit
// collector get auditors, and NewRunExec inherits the enablement into a
// distinct per-run collector.
func TestPCAuditEnvCompat(t *testing.T) {
	prev := DefaultAudit()
	defer setDefaultAudit(prev)

	t.Setenv("PC_AUDIT", "1")
	initDefaultAudit()
	if !DefaultAudit().Enabled() {
		t.Fatal("PC_AUDIT=1 left the default collector disabled")
	}
	m, err := NewMachine(cpu.SandyBridge, core.ApproachChipShare, 47)
	if err != nil {
		t.Fatal(err)
	}
	if m.Audit == nil {
		t.Error("PC_AUDIT=1 machine assembled without an auditor")
	}
	ex := NewRunExec(1)
	if ex.Assembly.Audit == nil || !ex.Assembly.Audit.Enabled() {
		t.Error("NewRunExec did not inherit the default collector's enablement")
	}
	if ex.Assembly.Audit == DefaultAudit() {
		t.Error("NewRunExec reused the process-default collector instead of a per-run one")
	}

	t.Setenv("PC_AUDIT", "0")
	initDefaultAudit()
	if DefaultAudit().Enabled() {
		t.Fatal("PC_AUDIT=0 left the default collector enabled")
	}
	if ex := NewRunExec(1); ex.Assembly.Audit.Enabled() {
		t.Error("NewRunExec enabled auditing with PC_AUDIT=0")
	}
}

// TestCalibrationForConcurrent hammers the calibration cache from many
// goroutines across all machine specs: every caller for a spec must get
// the same memoized result and calibration must run exactly once per spec
// (the per-entry sync.Once), without holding the cache lock across the
// calibration itself.
func TestCalibrationForConcurrent(t *testing.T) {
	specs := cpu.Specs()
	const per = 8
	results := make([]*calib.Result, len(specs)*per)
	errs := make([]error, len(specs)*per)
	var wg sync.WaitGroup
	for i, spec := range specs {
		for j := 0; j < per; j++ {
			wg.Add(1)
			go func(slot int, spec cpu.MachineSpec) {
				defer wg.Done()
				results[slot], errs[slot] = CalibrationFor(spec)
			}(i*per+j, spec)
		}
	}
	wg.Wait()
	for i, spec := range specs {
		base := results[i*per]
		for j := 0; j < per; j++ {
			slot := i*per + j
			if errs[slot] != nil {
				t.Fatalf("%s: %v", spec.Name, errs[slot])
			}
			if results[slot] != base {
				t.Errorf("%s: caller %d got a different calibration instance", spec.Name, j)
			}
		}
	}
}
