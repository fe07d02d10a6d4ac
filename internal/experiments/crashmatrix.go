package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/faults"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/runner"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// CrashMatrixCell is one crash point of the matrix: a supervised durable
// streaming run killed by the injected plan, restarted, and compared
// against the golden uninterrupted stream.
type CrashMatrixCell struct {
	// Spec is the canonical faults.CrashPlan that killed the run.
	Spec string
	// Restarts counts supervisor restarts (≥ 1 when the plan fired).
	Restarts int
	// Mode is the recovery decision of the restart attempt: "fresh",
	// "checkpoint", or "scratch".
	Mode string
	// Frontier is the durable record count surviving the crash.
	Frontier int64
	// Truncations counts WAL tail repairs during recovery.
	Truncations int
	// SHA is the SHA-256 of the recovered durable stream.
	SHA string
	// Exact reports SHA == the golden run's hash: no record lost,
	// duplicated, or reordered.
	Exact bool
}

// CrashMatrixResult is the exact-recovery sweep (robustness extension):
// the paper's facility is an always-on service, so its streaming output
// must survive a kill -9 at any filesystem operation. Every cell crashes
// a durable run at a scheduled WAL append, fsync, checkpoint write or
// rename — several with bit-flip or truncation damage inflicted while the
// process is down — and requires the recovered stream to hash identically
// to the run that never crashed.
type CrashMatrixResult struct {
	// GoldenSHA is the uninterrupted run's stream hash; Records its length.
	GoldenSHA string
	Records   int64
	Cells     []CrashMatrixCell
}

// CrashMatrixOptions trims the experiment.
type CrashMatrixOptions struct {
	// Specs are the crash-plan specs to sweep; nil selects the default
	// matrix below.
	Specs []string
	// Exec configures parallelism and per-run assembly.
	Exec Exec
}

// defaultCrashSpecs is the standing matrix: ≥ 12 distinct crash points
// covering WAL appends (torn at several depths), pre- and post-fsync
// deaths, every step of the checkpoint's write/fsync/rename pipeline, and
// stable-storage damage (bit flips and truncation) inflicted after the
// cut. Indexes are chosen to land inside a 40-tick run.
func defaultCrashSpecs() []string {
	return []string{
		"crash:op=write,match=wal-,index=1",
		"crash:op=write,match=wal-,index=40,keep=6",
		"crash:op=write,match=wal-,index=90,keep=3",
		"crash:op=sync,match=wal-,index=1",
		"crash:op=sync,match=wal-,index=7",
		"crash:op=sync,match=wal-,index=13,at=post",
		"crash:op=create,match=checkpoint.ck,index=1",
		"crash:op=write,match=checkpoint.ck,index=2,keep=9",
		"crash:op=sync,match=checkpoint.ck,index=1",
		"crash:op=rename,match=checkpoint.ck,index=1",
		"crash:op=rename,match=checkpoint.ck,index=2,at=post",
		"crash:op=sync,match=wal-,index=20,at=post;corrupt:file=.seg,off=-2,mask=64",
		"crash:op=sync,match=wal-,index=20,at=post;corrupt:file=checkpoint.ck,off=12,mask=1",
		"crash:op=sync,match=wal-,index=25,at=post;corrupt:file=.seg,trunc=200",
	}
}

// crashStreamGrid is the shared run shape: 40 ticks of GAE at 0.4·peak
// with a checkpoint every 10 ticks, identical across the golden run and
// every cell (the crash plans must kill the same stream they recover).
const (
	crashStreamHorizon = 4 * sim.Second
	crashStreamTick    = 100 * sim.Millisecond
	crashStreamCPEvery = 10
	crashStreamDir     = "cm"
)

// crashRecoveryProbe records what the latest OpenStore found.
type crashRecoveryProbe struct {
	mode     string
	frontier int64
	truncs   int
}

func (p *crashRecoveryProbe) Observe(e sim.Event) {
	switch e.Kind {
	case sim.KindWALTruncate:
		p.truncs++
	case sim.KindRecovery:
		p.mode, p.frontier = e.Name, e.N
	}
}

// crashMatrixStream runs one durable streaming attempt over fsys: build
// the seeded machine, recover the store, resume, run to the horizon.
func crashMatrixStream(as Assembly, seed uint64, fsys durable.FS, probe sim.Observer) error {
	m, err := as.NewMachine(cpu.SandyBridge, core.ApproachRecalibrated, seed)
	if err != nil {
		return err
	}
	dep := workload.GAE{}.Deploy(m.K, m.Rng.Fork(11))
	gen := server.NewLoadGen(m.K, m.Fac, dep)
	gen.RunOpenLoop(0.4*PeakRate(m.K.Spec, dep), crashStreamHorizon, m.Rng.Fork(13))
	var meter power.Meter
	scope := model.ScopeMachine
	if r := m.Fac.Recalibrator(); r != nil {
		meter, scope = r.Meter, r.Scope
	} else {
		meter, scope = m.Chip, model.ScopePackage
	}
	src := stream.Sources{Eng: m.Eng, Fac: m.Fac, Meter: meter, Scope: scope}
	cfg := stream.Config{Tick: crashStreamTick, CheckpointEvery: crashStreamCPEvery}
	st, rec, err := stream.OpenStore(fsys, crashStreamDir, probe)
	if err != nil {
		return err
	}
	e, err := stream.Resume(src, cfg, st, rec)
	if err != nil {
		return err
	}
	e.RunUntil(crashStreamHorizon)
	return st.Close()
}

// hashDurableStream reads the store's record stream back and hashes it.
func hashDurableStream(fsys durable.FS) (string, int64, error) {
	h := sha256.New()
	var records int64
	err := stream.ReadStream(fsys, crashStreamDir, func(seq int64, line []byte) error {
		records = seq
		h.Write(line)
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), records, nil
}

// crashMatrixCell executes one crash point: attempt 1 runs over a CrashFS
// armed with the plan, the supervisor absorbs the death, and the restart
// recovers and finishes on the bare in-memory filesystem.
func crashMatrixCell(as Assembly, seed uint64, spec string) (CrashMatrixCell, error) {
	plan, err := faults.ParseCrashPlan(spec)
	if err != nil {
		return CrashMatrixCell{}, err
	}
	mem := durable.NewMemFS()
	probe := &crashRecoveryProbe{}
	cell := CrashMatrixCell{Spec: plan.String()}
	attempt := 0
	sup := &stream.Supervisor{
		IsCrash:   func(r any) bool { _, ok := r.(faults.Crash); return ok },
		Progress:  func() int64 { return probe.frontier },
		OnRestart: func(n int, cause string) { cell.Restarts = n },
	}
	if err := sup.Run(func() error {
		var f durable.FS = mem
		if attempt == 0 {
			f = faults.NewCrashFS(mem, plan)
		}
		attempt++
		return crashMatrixStream(as, seed, f, probe)
	}); err != nil {
		return cell, err
	}
	cell.Mode, cell.Frontier, cell.Truncations = probe.mode, probe.frontier, probe.truncs
	if cell.SHA, _, err = hashDurableStream(mem); err != nil {
		return cell, err
	}
	return cell, nil
}

// CrashMatrix runs the golden stream and sweeps the crash points, fanning
// independent cells across opt.Exec.Jobs workers.
func CrashMatrix(opt CrashMatrixOptions, seed uint64) (*CrashMatrixResult, error) {
	if opt.Specs == nil {
		opt.Specs = defaultCrashSpecs()
	}
	as := opt.Exec.Assembly

	res := &CrashMatrixResult{}
	mem := durable.NewMemFS()
	if err := crashMatrixStream(as, seed, mem, nil); err != nil {
		return nil, fmt.Errorf("crashmatrix golden run: %w", err)
	}
	var err error
	if res.GoldenSHA, res.Records, err = hashDurableStream(mem); err != nil {
		return nil, fmt.Errorf("crashmatrix golden run: %w", err)
	}

	plan := &runner.Plan{}
	for _, spec := range opt.Specs {
		spec := spec
		plan.Add("crashmatrix/"+spec, func() (any, error) {
			cell, err := crashMatrixCell(as, seed, spec)
			if err != nil {
				return nil, fmt.Errorf("crashmatrix %q: %w", spec, err)
			}
			return cell, nil
		})
	}
	cells, err := runner.Collect[CrashMatrixCell](plan, opt.Exec.Jobs)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Exact = cells[i].SHA == res.GoldenSHA
	}
	res.Cells = cells
	return res, nil
}

// CrashMatrixEx runs the default matrix under an execution configuration.
func CrashMatrixEx(ex Exec, seed uint64) (*CrashMatrixResult, error) {
	return CrashMatrix(CrashMatrixOptions{Exec: ex}, seed)
}

// Render prints one row per crash point.
func (r *CrashMatrixResult) Render() string {
	t := &Table{
		Title:  "crashmatrix: exact recovery of the durable record stream across injected crash points",
		Header: []string{"crash point", "restarts", "recovery", "frontier", "repairs", "exact"},
		Caption: fmt.Sprintf("golden run: %d records, sha256 %s…\n"+
			"frontier = durable records surviving the cut; repairs = WAL torn-tail truncations;\n"+
			"exact = recovered stream hash equals the uninterrupted run's", r.Records, r.GoldenSHA[:16]),
	}
	for _, c := range r.Cells {
		exact := "YES"
		if !c.Exact {
			exact = "NO"
		}
		t.AddRow(c.Spec, fmt.Sprintf("%d", c.Restarts), c.Mode,
			fmt.Sprintf("%d", c.Frontier), fmt.Sprintf("%d", c.Truncations), exact)
	}
	return t.String()
}
