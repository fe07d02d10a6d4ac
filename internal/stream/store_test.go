package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/durable"
	"powercontainers/internal/faults"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// storeCfg keeps segments small so crash tests exercise rotation.
func storeCfg() stream.Config {
	return stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 10}
}

// goldenStream runs an uninterrupted durable run on mem and returns the
// canonical stream bytes read back from the WAL.
func goldenStream(t *testing.T, seed uint64) []byte {
	t.Helper()
	mem := durable.NewMemFS()
	runDurable(t, mem, nil, seed)
	return dumpStream(t, mem)
}

// runDurable opens the store on fsys (wrapping mem), resumes, and drives
// the engine to the bed's horizon. fsys nil means use mem directly.
func runDurable(t testing.TB, mem *durable.MemFS, fsys durable.FS, seed uint64) {
	t.Helper()
	if fsys == nil {
		fsys = mem
	}
	bed := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	st, rec, err := stream.OpenStore(fsys, "wal", nil)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	e, err := stream.Resume(bed.m.Sources(), storeCfg(), st, rec)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	e.RunUntil(bed.end())
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// dumpStream reads the durable record stream back as one byte blob.
func dumpStream(t *testing.T, mem *durable.MemFS) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := stream.ReadStream(mem, "wal", func(seq int64, line []byte) error {
		out.Write(line)
		return nil
	}); err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	return out.Bytes()
}

// TestDurableRunMatchesPlainRun pins the store's pass-through fidelity:
// the WAL contents of a durable run equal the canonical encoding of a
// plain collector run, record for record.
func TestDurableRunMatchesPlainRun(t *testing.T) {
	const seed = 41
	bed := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	e := stream.New(bed.m.Sources(), storeCfg())
	var col stream.Collector
	e.Sink = &col
	e.RunUntil(bed.end())

	if got, want := goldenStream(t, seed), col.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("durable stream (%d bytes) differs from plain run (%d bytes)", len(got), len(want))
	}
}

// TestDurableResumeAfterCrash sweeps a handful of crash points at the
// store level (the full sweep is the crashmatrix experiment): each crash
// kills the run mid-flight, recovery resumes it, and the final WAL must
// be byte-identical to the uninterrupted run's.
func TestDurableResumeAfterCrash(t *testing.T) {
	const seed = 41
	golden := goldenStream(t, seed)
	plans := []string{
		"crash:op=write,match=wal-,index=40",
		"crash:op=write,match=wal-,index=120,keep=5",
		"crash:op=sync,match=wal-,index=7",
		"crash:op=sync,match=wal-,index=13,at=post",
		"crash:op=rename,match=checkpoint.ck,index=2",
		"crash:op=sync,match=checkpoint.ck.tmp,index=1",
	}
	for _, spec := range plans {
		t.Run(spec, func(t *testing.T) {
			plan, err := faults.ParseCrashPlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			mem := durable.NewMemFS()
			cfs := faults.NewCrashFS(mem, plan)
			crashed := func() (c bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(faults.Crash); !ok {
							panic(r)
						}
						c = true
					}
				}()
				runDurable(t, mem, cfs, seed)
				return false
			}()
			if !crashed {
				t.Fatalf("plan %q never fired", spec)
			}
			// The process is dead; restart on the surviving filesystem.
			runDurable(t, mem, nil, seed)
			if got := dumpStream(t, mem); !bytes.Equal(got, golden) {
				t.Fatalf("recovered stream (%d bytes) differs from golden (%d bytes)", len(got), len(golden))
			}
		})
	}
}

// TestDurableRecoveryModes pins the resume decision ladder: fresh on an
// empty dir, checkpoint once one is persisted, scratch when the
// checkpoint comes from an older format or is corrupt — and scratch
// again when a corruption truncates the WAL behind the checkpoint's
// coverage.
func TestDurableRecoveryModes(t *testing.T) {
	const seed = 41
	mem := durable.NewMemFS()

	probe := &recoveryProbe{}
	st, rec, err := stream.OpenStore(mem, "wal", probe)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mode != "fresh" || rec.LastSeq != 0 {
		t.Fatalf("empty dir recovered as %q lastSeq=%d", rec.Mode, rec.LastSeq)
	}
	bed := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	e, err := stream.Resume(bed.m.Sources(), storeCfg(), st, rec)
	if err != nil {
		t.Fatal(err)
	}
	e.RunTicks(25)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, err := stream.OpenStore(mem, "wal", probe)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Mode != "checkpoint" || rec2.Checkpoint == nil || rec2.Checkpoint.Tick != 20 {
		t.Fatalf("after 25 ticks recovered as %q (cp %v)", rec2.Mode, rec2.Checkpoint)
	}
	if rec2.LastSeq != st.LastSeq() {
		t.Fatalf("recovered lastSeq %d, store reported %d", rec2.LastSeq, st.LastSeq())
	}

	// A store written by an older build holds a version-2 checkpoint:
	// recovery must refuse it by version, replay from scratch (checking
	// every regenerated record against the WAL), and resume the exact
	// stream.
	cur := []byte(fmt.Sprintf(`{"version":%d,`, stream.CheckpointVersion))
	data, err := durable.ReadChecked(mem, "wal/checkpoint.ck")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, cur) {
		t.Fatalf("checkpoint does not open with %s", cur)
	}
	old := append([]byte(`{"version":2,`), data[len(cur):]...)
	if err := durable.WriteChecked(mem, "wal/checkpoint.ck", old); err != nil {
		t.Fatal(err)
	}
	st, rec, err = stream.OpenStore(mem, "wal", probe)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mode != "scratch" || !strings.Contains(rec.Detail, "version 2") {
		t.Fatalf("version-2 checkpoint recovered as %q (%s)", rec.Mode, rec.Detail)
	}
	bed = deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	if e, err = stream.Resume(bed.m.Sources(), storeCfg(), st, rec); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(bed.end())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpStream(t, mem), goldenStream(t, seed)) {
		t.Fatal("stream resumed past a version-2 checkpoint differs from golden")
	}

	// Bit-flip the checkpoint blob: recovery must fall back to scratch,
	// not fail.
	if err := mem.Corrupt("wal/checkpoint.ck", 20, 0x08); err != nil {
		t.Fatal(err)
	}
	_, rec3, err := stream.OpenStore(mem, "wal", probe)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Mode != "scratch" || rec3.Checkpoint != nil {
		t.Fatalf("corrupt checkpoint recovered as %q", rec3.Mode)
	}
	if got := probe.modes; len(got) != 4 || got[0] != "fresh" || got[1] != "checkpoint" || got[2] != "scratch" || got[3] != "scratch" {
		t.Fatalf("recovery modes = %v", got)
	}
}

// TestDurableScratchFallbackReplaysExactly drives the subtle matrix
// case: a bit-flip destroys the WAL's final frame right after a
// checkpoint was persisted, so the surviving WAL holds fewer records
// than the checkpoint covers. Resume must reject the checkpoint, replay
// from scratch, and still converge to the golden stream.
func TestDurableScratchFallbackReplaysExactly(t *testing.T) {
	const seed = 41
	golden := goldenStream(t, seed)

	mem := durable.NewMemFS()
	bed := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	st, rec, err := stream.OpenStore(mem, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := stream.Resume(bed.m.Sources(), storeCfg(), st, rec)
	if err != nil {
		t.Fatal(err)
	}
	// Stop exactly at the tick-20 checkpoint: Close persists it, so the
	// checkpoint covers every record the WAL holds.
	e.RunTicks(20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy the last WAL frame (a record the checkpoint already
	// covers after truncation): lastSeq drops below cp.Records.
	segs := mem.Paths()
	last := segs[0]
	for _, p := range segs {
		if p > last && p != "wal/checkpoint.ck" {
			last = p
		}
	}
	if err := mem.Corrupt(last, mem.Size(last)-1, 0x01); err != nil {
		t.Fatal(err)
	}

	probe := &recoveryProbe{}
	st2, rec2, err := stream.OpenStore(mem, "wal", probe)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Mode != "scratch" {
		t.Fatalf("recovered as %q, want scratch (cp overtook WAL)", rec2.Mode)
	}
	if probe.truncates == 0 {
		t.Fatal("no WAL truncation observed for the destroyed final frame")
	}
	bed2 := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	e2, err := stream.Resume(bed2.m.Sources(), storeCfg(), st2, rec2)
	if err != nil {
		t.Fatal(err)
	}
	e2.RunUntil(bed2.end())
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dumpStream(t, mem); !bytes.Equal(got, golden) {
		t.Fatalf("scratch-fallback stream (%d bytes) differs from golden (%d bytes)", len(got), len(golden))
	}
}

// errSyncFailed is the injected fsync failure of syncFailFS.
var errSyncFailed = errors.New("injected sync failure")

// syncFailFS wraps an FS to fail File.Sync, once fail is set, on every
// file it matches, and counts Create/OpenAppend opens and Close calls per
// file name.
type syncFailFS struct {
	durable.FS
	fail          func(name string) bool
	opens, closes map[string]int
}

func newSyncFailFS() *syncFailFS {
	return &syncFailFS{FS: durable.NewMemFS(), opens: map[string]int{}, closes: map[string]int{}}
}

func (f *syncFailFS) Create(name string) (durable.File, error) {
	file, err := f.FS.Create(name)
	return f.track(name, file, err)
}

func (f *syncFailFS) OpenAppend(name string) (durable.File, error) {
	file, err := f.FS.OpenAppend(name)
	return f.track(name, file, err)
}

func (f *syncFailFS) track(name string, file durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	f.opens[name]++
	return &syncFailFile{File: file, fs: f, name: name}, nil
}

type syncFailFile struct {
	durable.File
	fs   *syncFailFS
	name string
}

func (f *syncFailFile) Sync() error {
	if f.fs.fail != nil && f.fs.fail(f.name) {
		return errSyncFailed
	}
	return f.File.Sync()
}

func (f *syncFailFile) Close() error {
	f.fs.closes[f.name]++
	return f.File.Close()
}

// TestStoreCloseAfterFailedSync pins Close's error paths: when the WAL
// sync or the checkpoint persist behind it fails, Store.Close (and the
// durable.Log.Close under it) still closes every file it opened, once,
// and returns the failure.
func TestStoreCloseAfterFailedSync(t *testing.T) {
	cases := []struct {
		name string
		fail func(name string) bool
	}{
		{"wal-sync", func(string) bool { return true }},
		{"checkpoint-persist", func(name string) bool { return !strings.HasSuffix(name, ".seg") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := newSyncFailFS()
			bed := deployBed(t, core.ApproachRecalibrated, 71, workload.GAE{}, 0.4)
			st, rec, err := stream.OpenStore(fsys, "wal", nil)
			if err != nil {
				t.Fatalf("OpenStore: %v", err)
			}
			e, err := stream.Resume(bed.m.Sources(), storeCfg(), st, rec)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			// Stop on the cadence: the tick-10 checkpoint is left for
			// Close to persist.
			e.RunTicks(10)
			fsys.fail = tc.fail
			if err := st.Close(); !errors.Is(err, errSyncFailed) {
				t.Fatalf("Close = %v, want the injected sync failure", err)
			}
			if len(fsys.opens) == 0 {
				t.Fatal("the store opened no files")
			}
			for name, n := range fsys.opens {
				if fsys.closes[name] != n {
					t.Errorf("%s: opened %d times, closed %d", name, n, fsys.closes[name])
				}
			}
		})
	}
}

type recoveryProbe struct {
	modes     []string
	truncates int
}

func (p *recoveryProbe) Observe(e sim.Event) {
	switch e.Kind {
	case sim.KindWALTruncate:
		p.truncates++
	case sim.KindRecovery:
		p.modes = append(p.modes, e.Name)
	}
}

// TestSupervisorBudgetAndCrashLoop pins the supervisor's control logic
// with synthetic attempts (no engine involved).
func TestSupervisorBudgetAndCrashLoop(t *testing.T) {
	isCrash := func(r any) bool { _, ok := r.(faults.Crash); return ok }
	boom := func() { panic(faults.Crash{Op: "sync", Name: "x"}) }

	// Crashes with progress: restarts until the attempt succeeds.
	var progress int64
	attempts := 0
	sup := &stream.Supervisor{IsCrash: isCrash, Progress: func() int64 { return progress }}
	err := sup.Run(func() error {
		attempts++
		progress++
		if attempts < 4 {
			boom()
		}
		return nil
	})
	if err != nil || attempts != 4 {
		t.Fatalf("progressing run: err=%v attempts=%d", err, attempts)
	}

	// No progress: crash-loop detection fires well inside the budget.
	attempts = 0
	sup = &stream.Supervisor{IsCrash: isCrash, MaxRestarts: 50, Progress: func() int64 { return 0 }}
	err = sup.Run(func() error { attempts++; boom(); return nil })
	if err == nil || attempts > 4 {
		t.Fatalf("stalled run: err=%v attempts=%d, want crash-loop abort", err, attempts)
	}

	// Budget exhaustion with steady progress.
	var n int64
	sup = &stream.Supervisor{IsCrash: isCrash, MaxRestarts: 3, Progress: func() int64 { return n }}
	err = sup.Run(func() error { n++; boom(); return nil })
	if err == nil || n != 4 {
		t.Fatalf("budget run: err=%v attempts=%d, want give-up after 3 restarts", err, n)
	}

	// Errors are fatal immediately; foreign panics propagate.
	calls := 0
	sentinel := errors.New("refused")
	if err := (&stream.Supervisor{IsCrash: isCrash}).Run(func() error { calls++; return sentinel }); !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("error run: err=%v calls=%d", err, calls)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("foreign panic swallowed")
			}
		}()
		_ = (&stream.Supervisor{IsCrash: isCrash}).Run(func() error { panic("bug") })
	}()

	// Sleep and OnRestart observe each restart in order.
	var slept, restarts []int
	sup = &stream.Supervisor{
		IsCrash:   isCrash,
		Sleep:     func(r int) { slept = append(slept, r) },
		OnRestart: func(r int, cause string) { restarts = append(restarts, r) },
		Progress:  func() int64 { progress++; return progress },
	}
	attempts = 0
	if err := sup.Run(func() error {
		attempts++
		if attempts < 3 {
			boom()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(slept) != "[1 2]" || fmt.Sprint(restarts) != "[1 2]" {
		t.Fatalf("slept=%v restarts=%v", slept, restarts)
	}
}

// TestSupervisedStoreRunConverges glues supervisor + store + crash plan:
// a supervised run that dies twice still produces the golden stream.
func TestSupervisedStoreRunConverges(t *testing.T) {
	const seed = 41
	golden := goldenStream(t, seed)
	mem := durable.NewMemFS()
	plan, err := faults.ParseCrashPlan("crash:op=sync,match=wal-,index=9")
	if err != nil {
		t.Fatal(err)
	}
	cfs := faults.NewCrashFS(mem, plan)
	restarts := 0
	sup := &stream.Supervisor{
		IsCrash:   func(r any) bool { _, ok := r.(faults.Crash); return ok },
		OnRestart: func(r int, cause string) { restarts = r },
	}
	err = sup.Run(func() error {
		bed := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
		st, rec, err := stream.OpenStore(durable.FS(cfs), "wal", nil)
		if err != nil {
			return err
		}
		e, err := stream.Resume(bed.m.Sources(), storeCfg(), st, rec)
		if err != nil {
			return err
		}
		e.RunUntil(bed.end())
		return st.Close()
	})
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if restarts != 1 {
		t.Fatalf("restarts = %d, want 1", restarts)
	}
	if got := dumpStream(t, mem); !bytes.Equal(got, golden) {
		t.Fatalf("supervised stream differs from golden")
	}
}

// BenchmarkStreamRecover measures restart latency: reopening a populated
// durable store (checkpoint decode plus full WAL segment scan) and
// rebuilding the engine via the quiet-replay path — the gap between
// process start and the first new record after a crash. The store is
// written once by a clean run ending on a checkpoint boundary, so every
// iteration recovers the identical state and appends nothing. The
// recovery-ms metric feeds BENCH_stream.json.
func BenchmarkStreamRecover(b *testing.B) {
	const seed = 41
	mem := durable.NewMemFS()
	runDurable(b, mem, nil, seed)
	if _, rec, err := stream.OpenStore(mem, "wal", nil); err != nil || rec.Mode != "checkpoint" {
		b.Fatalf("populated store did not recover in checkpoint mode: %v %v", rec, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed := deployBed(b, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
		st, rec, err := stream.OpenStore(mem, "wal", nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stream.Resume(bed.m.Sources(), storeCfg(), st, rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "recovery-ms")
}
