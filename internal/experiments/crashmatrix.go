package experiments

import (
	"fmt"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/faults"
	"powercontainers/internal/runner"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// CrashMatrixCell is one crash point of the matrix: a durable streaming
// run killed by the injected plan, restarted, and compared against the
// golden uninterrupted stream.
type CrashMatrixCell struct {
	// Spec is the canonical faults.CrashPlan that killed the run.
	Spec string
	// Restarts counts attempts after the first (1 when the plan fired).
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

// crashMatrixStream is the durable stream the golden run completes and
// every cell crashes, over its own in-memory store.
func crashMatrixStream(ex Exec, seed uint64, crashes []*faults.CrashPlan, probe sim.Observer) *DurableStream {
	return &DurableStream{
		FS:      durable.NewMemFS(),
		Dir:     crashStreamDir,
		Config:  stream.Config{Tick: crashStreamTick, CheckpointEvery: crashStreamCPEvery},
		Horizon: crashStreamHorizon,
		Sources: func() (stream.Sources, error) {
			m, err := ex.NewMachine(cpu.SandyBridge, core.ApproachRecalibrated, seed)
			if err != nil {
				return stream.Sources{}, err
			}
			m.Deploy(workload.GAE{}).DriveFrac(0.4, crashStreamHorizon)
			return m.Sources(), nil
		},
		Crashes:  crashes,
		Observer: probe,
	}
}

// crashMatrixCell executes one crash point: attempt 1 runs armed with the
// plan, and when the plan kills it, attempt 2 recovers and finishes on the
// bare in-memory filesystem.
func crashMatrixCell(ex Exec, seed uint64, spec string) (CrashMatrixCell, error) {
	plan, err := faults.ParseCrashPlan(spec)
	if err != nil {
		return CrashMatrixCell{}, err
	}
	probe := &crashRecoveryProbe{}
	d := crashMatrixStream(ex, seed, []*faults.CrashPlan{plan}, probe)
	attempts, err := d.Run()
	if err != nil {
		return CrashMatrixCell{}, err
	}
	cell := CrashMatrixCell{Spec: plan.String(), Restarts: attempts - 1,
		Mode: probe.mode, Frontier: probe.frontier, Truncations: probe.truncs}
	cell.SHA, _, err = d.Read(nil)
	return cell, err
}

// CrashMatrix runs the golden stream and sweeps the crash points, fanning
// independent cells across ex.Jobs workers.
func CrashMatrix(ex Exec, seed uint64) (*CrashMatrixResult, error) {

	res := &CrashMatrixResult{}
	golden := crashMatrixStream(ex, seed, nil, nil)
	if _, err := golden.Run(); err != nil {
		return nil, fmt.Errorf("crashmatrix golden run: %w", err)
	}
	var err error
	if res.GoldenSHA, res.Records, err = golden.Read(nil); err != nil {
		return nil, fmt.Errorf("crashmatrix golden run: %w", err)
	}

	plan := &runner.Plan{}
	for _, spec := range defaultCrashSpecs() {
		spec := spec
		plan.Add("crashmatrix/"+spec, func() (any, error) {
			cell, err := crashMatrixCell(ex, seed, spec)
			if err != nil {
				return nil, fmt.Errorf("crashmatrix %q: %w", spec, err)
			}
			return cell, nil
		})
	}
	cells, err := runner.Collect[CrashMatrixCell](plan, ex.Jobs)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Exact = cells[i].SHA == res.GoldenSHA
	}
	res.Cells = cells
	return res, nil
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
