// Command pcstream runs the streaming attribution engine over a
// simulated machine and prints the per-container power/energy record
// stream in its canonical line encoding — the online counterpart of
// pcbench's batch experiments.
//
// Usage:
//
//	pcstream [-machine M] [-workload W] [-load F] [-attribution A]
//	         [-duration S] [-tick MS] [-seed N]
//	pcstream -dir DIR [-supervise [-max-restarts N] [-backoff-ms MS]
//	         [-crash SPEC]...] [same flags] ...
//
// The stream is deterministic: the same flags produce the byte-identical
// stream.
//
// -dir switches to durable mode: every record is appended to a CRC-framed
// WAL in DIR, a checkpoint persists beside it every 10 ticks, and on
// startup the store recovers (torn tails repaired, newest valid
// checkpoint loaded, WAL tail replayed) and resumes exactly where the
// durable stream ends — rerunning the same command after any number of
// kills re-emits nothing and loses nothing, and rerunning it with a later
// -duration continues the stream from where the previous run stopped.
// What is printed is the stream read back from the WAL, so stdout is
// byte-identical to an uninterrupted run regardless of crash history.
// -supervise adds an in-process supervisor: attempts that die with a
// crash are restarted with exponential backoff (-backoff-ms, 0 disables
// waiting) within a restart budget (-max-restarts), and repeated deaths
// without durable progress abort as a crash loop. Each -crash flag
// (repeatable) injects one faults.CrashPlan into the corresponding
// attempt over an in-memory filesystem — the e2e crashmatrix harness.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/experiments"
	"powercontainers/internal/faults"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pcstream:", err)
		os.Exit(1)
	}
}

// baseSeed holds the parsed -seed flag: the stream's registered base
// seed, from which every generator in the run derives.
//
//pclint:seed
var baseSeed uint64

// lineSink writes each record's canonical line encoding to a writer.
type lineSink struct {
	w       *bufio.Writer
	scratch []byte
	err     error
}

func (s *lineSink) OnRecord(r stream.Record) {
	s.scratch = stream.AppendRecord(s.scratch[:0], r)
	if _, err := s.w.Write(s.scratch); err != nil && s.err == nil {
		s.err = err
	}
}

// pickWorkload resolves a -workload flag value.
func pickWorkload(name string) (workload.Workload, error) {
	for _, wl := range []workload.Workload{
		workload.Stress{}, workload.GAE{}, workload.WeBWorK{},
		workload.EventServer{}, workload.Solr{}, workload.RSA{},
	} {
		if strings.EqualFold(wl.Name(), name) {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pickApproach resolves an -attribution flag value.
func pickApproach(name string) (core.Approach, error) {
	for _, ap := range experiments.Approaches() {
		if ap.String() == name {
			return ap, nil
		}
	}
	return 0, fmt.Errorf("unknown attribution approach %q (want core-only, chip-share, or recalibrated)", name)
}

// pickMachine resolves a -machine flag value.
func pickMachine(name string) (cpu.MachineSpec, error) {
	for _, spec := range cpu.Specs() {
		if strings.EqualFold(spec.Name, name) {
			return spec, nil
		}
	}
	return cpu.MachineSpec{}, fmt.Errorf("unknown machine %q", name)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcstream", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "SandyBridge", "machine spec name")
	wlName := fs.String("workload", "Stress", "workload name")
	load := fs.Float64("load", 0.5, "open-loop arrival rate as a fraction of peak")
	attribution := fs.String("attribution", "recalibrated", "attribution approach: core-only, chip-share, recalibrated")
	durationS := fs.Float64("duration", 10, "virtual seconds to stream")
	tickMS := fs.Int64("tick", 100, "streaming tick in virtual milliseconds")
	seed := fs.Uint64("seed", 1, "simulation seed (identical seeds reproduce identical streams)")
	dir := fs.String("dir", "", "durable mode: stream through a crash-safe WAL + checkpoint store in this directory and print the stream read back from it")
	supervise := fs.Bool("supervise", false, "restart crashed attempts with exponential backoff (requires -dir)")
	maxRestarts := fs.Int("max-restarts", 8, "restart budget for -supervise")
	backoffMS := fs.Int("backoff-ms", 100, "base wait before restart n, doubling each restart (0 = no waiting)")
	var crashSpecs []*faults.CrashPlan
	fs.Func("crash", "crash-plan `spec` injected into the next attempt (repeatable; uses an in-memory store; requires -supervise)", func(v string) error {
		p, err := faults.ParseCrashPlan(v)
		if err != nil {
			return err
		}
		crashSpecs = append(crashSpecs, p)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if !(*load > 0) || math.IsInf(*load, 1) {
		return fmt.Errorf("load must be finite and positive")
	}
	// The horizon is a sim.Time, int64 nanoseconds: NaN, Inf and durations
	// beyond about 292 years have no representation.
	if !(*durationS > 0 && *durationS*float64(sim.Second) < math.MaxInt64) || *tickMS <= 0 {
		return fmt.Errorf("duration and tick must be positive, and duration representable in sim time")
	}
	if *dir == "" && (*supervise || len(crashSpecs) > 0) {
		return fmt.Errorf("-supervise and -crash require -dir")
	}
	if len(crashSpecs) > 0 && !*supervise {
		return fmt.Errorf("-crash requires -supervise (an unsupervised crash just kills the run)")
	}
	spec, err := pickMachine(*machine)
	if err != nil {
		return err
	}
	wl, err := pickWorkload(*wlName)
	if err != nil {
		return err
	}
	ap, err := pickApproach(*attribution)
	if err != nil {
		return err
	}

	baseSeed = *seed
	horizon := sim.Time(*durationS * float64(sim.Second))
	// Every attempt — the plain run, or each supervised restart — rebuilds
	// the identically seeded machine from scratch: determinism is what
	// makes the recovered replay reproduce the durable stream.
	newSources := func() (stream.Sources, error) {
		m, err := experiments.NewMachine(spec, ap, baseSeed)
		if err != nil {
			return stream.Sources{}, err
		}
		dep := wl.Deploy(m.K, m.Rng.Fork(11))
		gen := server.NewLoadGen(m.K, m.Fac, dep)
		gen.RunOpenLoop(*load*experiments.PeakRate(m.K.Spec, dep), horizon, m.Rng.Fork(13))
		var meter power.Meter
		scope := model.ScopeMachine
		if r := m.Fac.Recalibrator(); r != nil {
			meter, scope = r.Meter, r.Scope
		} else {
			meter, scope = m.Chip, model.ScopePackage
		}
		return stream.Sources{Eng: m.Eng, Fac: m.Fac, Meter: meter, Scope: scope}, nil
	}
	cfg := stream.Config{Tick: sim.Time(*tickMS) * sim.Millisecond}

	if *dir != "" {
		cfg.CheckpointEvery = durableCheckpointEvery
		return runDurable(durableRun{
			dir: *dir, cfg: cfg, horizon: horizon, newSources: newSources,
			supervise: *supervise, maxRestarts: *maxRestarts, backoffMS: *backoffMS,
			plans: crashSpecs,
		}, stdout, stderr)
	}

	src, err := newSources()
	if err != nil {
		return err
	}
	e := stream.New(src, cfg)
	out := bufio.NewWriter(stdout)
	sink := &lineSink{w: out}
	hasher := stream.NewHasher()
	e.Sink = stream.Tee{sink, hasher}
	e.RunUntil(horizon)
	if err := out.Flush(); err != nil {
		return err
	}
	if sink.err != nil {
		return sink.err
	}

	fmt.Fprintf(stderr, "streamed %d ticks, %d records, %s J attributed, stream sha256 %s\n",
		e.Tick(), hasher.Count(), fmt.Sprintf("%.3f", e.CumAttributedJ()), hasher.Sum())
	return nil
}

// durableCheckpointEvery is the durable store's checkpoint cadence in
// ticks: recovery replays at most this many ticks past the newest
// checkpoint.
const durableCheckpointEvery = 10

// durableRun is the configuration for one durable-mode invocation.
type durableRun struct {
	dir        string
	cfg        stream.Config
	horizon    sim.Time
	newSources func() (stream.Sources, error)

	supervise   bool
	maxRestarts int
	backoffMS   int
	// plans[i] is the crash plan injected into attempt i (in-memory
	// store); attempts beyond the list run undisturbed.
	plans []*faults.CrashPlan
}

// runDurable streams through the crash-safe store: recover, resume, run
// to the horizon (under the supervisor when asked), then print the
// durable stream read back from the WAL — exactly the records an
// uninterrupted run emits, no matter how many times attempts died.
func runDurable(dr durableRun, stdout, stderr io.Writer) error {
	var fsys durable.FS = durable.OSFS{}
	var mem *durable.MemFS
	if len(dr.plans) > 0 {
		mem = durable.NewMemFS()
		fsys = mem
	}

	attemptN := 0
	frontier := int64(0) // durable frontier found by the latest recovery
	attempt := func() error {
		f := fsys
		if mem != nil && attemptN < len(dr.plans) {
			f = faults.NewCrashFS(mem, dr.plans[attemptN])
		}
		attemptN++
		src, err := dr.newSources()
		if err != nil {
			return err
		}
		st, rec, err := stream.OpenStore(f, dr.dir, nil)
		if err != nil {
			return err
		}
		frontier = rec.LastSeq
		fmt.Fprintf(stderr, "recovery: mode=%s frontier=%d\n", rec.Mode, rec.LastSeq)
		e, err := stream.Resume(src, dr.cfg, st, rec)
		if err != nil {
			return err
		}
		e.RunUntil(dr.horizon)
		return st.Close()
	}

	if dr.supervise {
		sup := &stream.Supervisor{
			MaxRestarts: dr.maxRestarts,
			IsCrash:     func(r any) bool { _, ok := r.(faults.Crash); return ok },
			Progress:    func() int64 { return frontier },
			OnRestart:   func(n int, cause string) { fmt.Fprintf(stderr, "restart %d: %s\n", n, cause) },
		}
		if dr.backoffMS > 0 {
			sup.Sleep = func(restart int) {
				d := time.Duration(dr.backoffMS) * time.Millisecond
				for i := 1; i < restart && d < 10*time.Second; i++ {
					d *= 2
				}
				if d > 10*time.Second {
					d = 10 * time.Second
				}
				time.Sleep(d)
			}
		}
		if err := sup.Run(attempt); err != nil {
			return err
		}
	} else if err := attempt(); err != nil {
		return err
	}

	// The WAL is the output: print it back so stdout carries each record
	// exactly once, in order, independent of the crash history above.
	out := bufio.NewWriter(stdout)
	h := sha256.New()
	var records int64
	if err := stream.ReadStream(fsys, dr.dir, func(seq int64, line []byte) error {
		records = seq
		h.Write(line)
		_, err := out.Write(line)
		return err
	}); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "durable stream: %d records, %d attempts, sha256 %s\n",
		records, attemptN, hex.EncodeToString(h.Sum(nil)))
	return nil
}
