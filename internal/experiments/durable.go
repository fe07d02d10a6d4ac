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
// ran. Attempt i runs armed with Crashes[i] when there is one; an armed
// attempt that dies with a faults.Crash is logged as a restart and
// followed by the next attempt, which recovers the store. An attempt's
// error returns at once and any other panic propagates, so at most
// len(Crashes)+1 attempts run.
func (d *DurableStream) Run() (attempts int, err error) {
	log := d.Log
	if log == nil {
		log = io.Discard
	}
	for {
		crash, err := d.attempt(attempts, log)
		attempts++
		if crash == nil || err != nil {
			return attempts, err
		}
		fmt.Fprintf(log, "restart %d: %s\n", attempts, crash)
	}
}

// attempt runs attempt i: it rebuilds the machine, recovers the store,
// resumes and streams to the horizon. Armed with a crash plan, it returns
// the planned death that cut it short, if one did.
func (d *DurableStream) attempt(i int, log io.Writer) (crash *faults.Crash, err error) {
	fsys := d.FS
	if i < len(d.Crashes) {
		fsys = faults.NewCrashFS(d.FS.(*durable.MemFS), d.Crashes[i])
		defer func() {
			if r := recover(); r != nil {
				c, ok := r.(faults.Crash)
				if !ok {
					panic(r)
				}
				crash = &c
			}
		}()
	}
	src, err := d.Sources()
	if err != nil {
		return nil, err
	}
	st, rec, err := stream.OpenStore(fsys, d.Dir, d.Observer)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "recovery: mode=%s frontier=%d\n", rec.Mode, rec.LastSeq)
	e, err := stream.Resume(src, d.Config, st, rec)
	if err != nil {
		return nil, err
	}
	e.RunUntil(d.Horizon)
	return nil, st.Close()
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
