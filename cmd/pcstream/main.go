// Command pcstream runs the streaming attribution engine over a
// simulated machine and prints the per-container power/energy record
// stream in its canonical line encoding — the online counterpart of
// pcbench's batch experiments.
//
// Usage:
//
//	pcstream [-machine M] [-workload W] [-load F] [-attribution A]
//	         [-duration S] [-tick MS] [-seed N]
//	pcstream -dir DIR [-crash SPEC]... [same flags] ...
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
// Each -crash flag (repeatable) arms one faults.CrashPlan for the
// corresponding attempt over an in-memory filesystem, and the attempt a
// plan kills is followed by one that recovers the store — the e2e
// crashmatrix harness. A real crash is recovered by rerunning the
// command, whose store recovers the same way.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/experiments"
	"powercontainers/internal/faults"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
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

// pickApproach resolves an -attribution flag value.
func pickApproach(name string) (core.Approach, error) {
	for _, ap := range experiments.Approaches() {
		if ap.String() == name {
			return ap, nil
		}
	}
	return 0, fmt.Errorf("unknown attribution approach %q (want core-only, chip-share, or recalibrated)", name)
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
	var crashSpecs []*faults.CrashPlan
	fs.Func("crash", "crash-plan `spec` killing the next attempt, which the one after it recovers (repeatable; uses an in-memory store; requires -dir)", func(v string) error {
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
	if *dir == "" && len(crashSpecs) > 0 {
		return fmt.Errorf("-crash requires -dir")
	}
	spec, err := cpu.SpecByName(*machine)
	if err != nil {
		return err
	}
	wl, err := experiments.WorkloadByName(*wlName)
	if err != nil {
		return err
	}
	ap, err := pickApproach(*attribution)
	if err != nil {
		return err
	}

	baseSeed = *seed
	horizon := sim.Time(*durationS * float64(sim.Second))
	// Every attempt — the plain run, or each restart after a planned
	// crash — rebuilds the identically seeded machine from scratch:
	// determinism is what makes the recovered replay reproduce the durable
	// stream.
	newSources := func() (stream.Sources, error) {
		m, err := experiments.NewMachine(spec, ap, baseSeed)
		if err != nil {
			return stream.Sources{}, err
		}
		m.Deploy(wl).DriveFrac(*load, horizon)
		return m.Sources(), nil
	}
	cfg := stream.Config{Tick: sim.Time(*tickMS) * sim.Millisecond}

	if *dir != "" {
		cfg.CheckpointEvery = durableCheckpointEvery
		d := &experiments.DurableStream{
			FS: durable.OSFS{}, Dir: *dir, Config: cfg, Horizon: horizon,
			Sources: newSources, Crashes: crashSpecs, Log: stderr,
		}
		if len(crashSpecs) > 0 {
			d.FS = durable.NewMemFS()
		}
		// Only a planned crash restarts an attempt, so without -crash
		// exactly one runs.
		attempts, err := d.Run()
		if err != nil {
			return err
		}
		// The WAL is the output: print it back so stdout carries each
		// record exactly once, in order, independent of the crash history.
		out := bufio.NewWriter(stdout)
		sum, records, err := d.Read(out)
		if err == nil {
			err = out.Flush()
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "durable stream: %d records, %d attempts, sha256 %s\n", records, attempts, sum)
		return nil
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
