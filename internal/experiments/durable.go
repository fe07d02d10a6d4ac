package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"powercontainers/internal/durable"
	"powercontainers/internal/faults"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
)

// DurableStream is a streaming run through the crash-safe record store
// (stream.OpenStore). Each attempt rebuilds the machine, recovers the
// store, resumes where its durable stream ends and streams to the
// horizon. Determinism is what lets a recovered attempt reproduce the
// stream, so Sources must build the identically seeded machine every
// time.
type DurableStream struct {
	// FS holds the store in Dir.
	FS  durable.FS
	Dir string
	// Config and Horizon shape the stream.
	Config  stream.Config
	Horizon sim.Time
	// Sources builds one attempt's machine.
	Sources func() (stream.Sources, error)
	// Crashes[i], when present, kills attempt i: the attempt runs over a
	// faults.CrashFS armed with the plan, which needs FS to be a
	// *durable.MemFS.
	Crashes []*faults.CrashPlan
	// Observer sees each recovery's torn-tail repairs and its resume
	// decision; nil ignores them.
	Observer sim.Observer
	// Log, when non-nil, gets one line per recovery and per restart.
	Log io.Writer
}

// Run runs attempts until one reaches the horizon and returns how many
// ran. An attempt that dies with a faults.Crash is restarted, after
// sleep(n) before restart n when sleep is non-nil, at most maxRestarts
// times (0 selects stream.Supervisor's default); repeated deaths that
// recover no new durable record abort as a crash loop. Only a planned
// crash can kill an attempt, so without Crashes exactly one runs.
func (d *DurableStream) Run(maxRestarts int, sleep func(restart int)) (attempts int, err error) {
	log := d.Log
	if log == nil {
		log = io.Discard
	}
	var frontier int64 // durable frontier found by the latest recovery
	sup := &stream.Supervisor{
		MaxRestarts: maxRestarts,
		IsCrash:     func(r any) bool { _, ok := r.(faults.Crash); return ok },
		Sleep:       sleep,
		Progress:    func() int64 { return frontier },
		OnRestart:   func(n int, cause string) { fmt.Fprintf(log, "restart %d: %s\n", n, cause) },
	}
	err = sup.Run(func() error {
		fsys := d.FS
		if attempts < len(d.Crashes) {
			fsys = faults.NewCrashFS(d.FS.(*durable.MemFS), d.Crashes[attempts])
		}
		attempts++
		src, err := d.Sources()
		if err != nil {
			return err
		}
		st, rec, err := stream.OpenStore(fsys, d.Dir, d.Observer)
		if err != nil {
			return err
		}
		frontier = rec.LastSeq
		fmt.Fprintf(log, "recovery: mode=%s frontier=%d\n", rec.Mode, rec.LastSeq)
		e, err := stream.Resume(src, d.Config, st, rec)
		if err != nil {
			return err
		}
		e.RunUntil(d.Horizon)
		return st.Close()
	})
	return attempts, err
}

// Read reads the durable stream back, copying each record's line to w
// when w is non-nil, and returns the stream's SHA-256 and record count.
func (d *DurableStream) Read(w io.Writer) (sum string, records int64, err error) {
	h := sha256.New()
	out := io.Writer(h)
	if w != nil {
		out = io.MultiWriter(h, w)
	}
	if err := stream.ReadStream(d.FS, d.Dir, func(seq int64, line []byte) error {
		records = seq
		_, err := out.Write(line)
		return err
	}); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), records, nil
}
