package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"path/filepath"

	"powercontainers/internal/durable"
	"powercontainers/internal/sim"
)

// Store persists the engine's output through internal/durable: every
// emitted record becomes one WAL frame — an 8-byte little-endian
// sequence number followed by the record's canonical line encoding — and
// the engine's automatic checkpoints land next to the log as a checked
// blob. The WAL is the durable output stream: after any number of
// crashes, reading it back yields exactly the records an uninterrupted
// run would have emitted, in order, each exactly once.
//
// Durability cadence: records accumulate unsynced within a tick and are
// fsynced when the tick's closing system record arrives, so a crash can
// only tear the current tick. The newest engine checkpoint is persisted
// right after the sync that covers it, which keeps the invariant
// checkpoint.Records ≤ synced WAL frames — the recovery paths below
// depend on it and treat its violation (a truncated WAL tail overtaken
// by a checkpoint) as a signal to fall back to from-scratch replay.
type Store struct {
	// Next receives records that were actually appended (not suppressed
	// as already-durable); may be nil.
	Next Sink

	fs  durable.FS
	dir string
	log *durable.Log

	seq        int64 // last sequence number handled this process
	suppressTo int64 // regenerated records up to here are deduped
	storedSum  string
	h          hash.Hash
	scratch    []byte

	eng         *Engine
	cpPersisted int64 // Records of the last persisted checkpoint
}

// Recovered is what OpenStore found on disk: the durable frontier and
// the checkpoint to resume from (nil means replay from scratch). Mode
// records the decision for reporting.
type Recovered struct {
	LastSeq    int64
	Checkpoint *Checkpoint
	Mode       string // "fresh", "checkpoint", "scratch"
	Detail     string

	suffixSum string // SHA-256 of stored records (cp.Records, LastSeq]
}

const checkpointFile = "checkpoint.ck"

// OpenStore opens (or creates) a durable store in dir, running WAL
// recovery: validate and count every durable record, repair a torn tail,
// load the newest valid checkpoint, and decide the resume mode. A
// corrupt or missing checkpoint is never fatal — the checkpoint is an
// optimization; determinism plus the WAL give correctness — but interior
// WAL corruption is (durable.ErrCorrupt). obs, when non-nil, sees each
// torn-tail repair (sim.KindWALTruncate) and the resume decision
// (sim.KindRecovery).
func OpenStore(fsys durable.FS, dir string, obs sim.Observer) (*Store, *Recovered, error) {
	s := &Store{fs: fsys, dir: dir, h: sha256.New()}
	rec := &Recovered{Mode: "fresh"}

	// Load the checkpoint first: its Records count splits the WAL into
	// the prefix it covers and the suffix the resumed engine must
	// regenerate, and the suffix hash is computed during the WAL scan.
	var cp *Checkpoint
	cpPath := filepath.Join(dir, checkpointFile)
	if data, err := durable.ReadChecked(fsys, cpPath); err == nil {
		if c, derr := DecodeCheckpoint(data); derr == nil {
			cp = c
		} else {
			rec.Detail = fmt.Sprintf("checkpoint undecodable: %v; ", derr)
		}
	} else if errors.Is(err, durable.ErrCorrupt) {
		rec.Detail = fmt.Sprintf("checkpoint corrupt: %v; ", err)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	cpRecords := int64(0)
	if cp != nil {
		cpRecords = cp.Records
	}

	suffix := sha256.New()
	full := sha256.New()
	var lastSeq int64
	log, err := durable.OpenLog(fsys, dir, durable.Options{
		Observer: obs,
		Replay: replayFrames(dir, func(seq int64, line []byte) error {
			lastSeq = seq
			full.Write(line)
			if seq > cpRecords {
				suffix.Write(line)
			}
			return nil
		}),
	})
	if err != nil {
		return nil, nil, err
	}
	s.log = log
	rec.LastSeq = lastSeq

	switch {
	case cp != nil && cpRecords <= lastSeq:
		rec.Checkpoint = cp
		rec.Mode = "checkpoint"
		rec.suffixSum = hex.EncodeToString(suffix.Sum(nil))
		s.cpPersisted = cpRecords
	case cp != nil:
		// The checkpoint got ahead of the surviving WAL (a corruption
		// truncated frames the checkpoint already covers): resuming from
		// it could never re-emit the lost records, so replay from scratch.
		rec.Detail += fmt.Sprintf("checkpoint covers %d records but WAL holds %d; ", cpRecords, lastSeq)
		fallthrough
	case lastSeq > 0:
		rec.Mode = "scratch"
		rec.suffixSum = hex.EncodeToString(full.Sum(nil))
	}
	if obs != nil {
		cpTick := -1
		if rec.Checkpoint != nil {
			cpTick = rec.Checkpoint.Tick
		}
		obs.Observe(sim.Event{Kind: sim.KindRecovery, Name: rec.Mode, N: rec.LastSeq, M: int64(cpTick), Detail: rec.Detail})
	}
	return s, rec, nil
}

// replayFrames returns a WAL replay callback that decodes each frame — an
// 8-byte little-endian sequence number followed by the record's canonical
// line — checks that sequence numbers run gapless from 1, and hands each
// record to deliver.
func replayFrames(dir string, deliver func(seq int64, line []byte) error) func(payload []byte) error {
	var last int64
	return func(payload []byte) error {
		if len(payload) < 8 {
			return &durable.CorruptError{Path: dir, Off: 0, Reason: fmt.Sprintf("record frame %d bytes, need ≥ 8", len(payload))}
		}
		seq := int64(binary.LittleEndian.Uint64(payload))
		if seq != last+1 {
			return &durable.CorruptError{Path: dir, Off: 0, Reason: fmt.Sprintf("record sequence jumped %d → %d", last, seq)}
		}
		last = seq
		return deliver(seq, payload[8:])
	}
}

// Resume builds the engine continuing the stored stream: from the
// recovered checkpoint via the deterministic quiet-replay path when one
// survived, from scratch otherwise. The engine's sink is the store;
// records the WAL already holds are suppressed instead of re-appended,
// while their regenerated canonical encodings are hashed and checked
// against the stored bytes — the exactly-once guarantee is enforced, not
// assumed. Attach the user-facing sink to store.Next.
func Resume(src Sources, cfg Config, st *Store, rec *Recovered) (*Engine, error) {
	var e *Engine
	if rec.Checkpoint != nil {
		var err error
		if e, err = ReplayTo(src, cfg, rec.Checkpoint); err != nil {
			return nil, err
		}
		st.seq = rec.Checkpoint.Records
	} else {
		e = New(src, cfg)
		st.seq = 0
	}
	st.suppressTo = rec.LastSeq
	st.storedSum = rec.suffixSum
	st.eng = e
	e.Sink = st
	return e, nil
}

// OnRecord implements Sink: suppress-and-verify inside the recovered
// prefix, append-and-forward beyond it.
func (s *Store) OnRecord(r Record) {
	s.seq++
	s.scratch = AppendRecord(s.scratch[:0], r)
	if s.seq <= s.suppressTo {
		s.h.Write(s.scratch)
		if s.seq == s.suppressTo {
			if got := hex.EncodeToString(s.h.Sum(nil)); got != s.storedSum {
				// A regenerated record differing from its durable copy is a
				// determinism violation, not a recoverable condition: carrying
				// on would silently fork the stream.
				panic(fmt.Sprintf("stream: recovered replay diverged from durable WAL through seq %d (regenerated %s, stored %s)", s.seq, got, s.storedSum))
			}
		}
		return
	}
	payload := make([]byte, 8+len(s.scratch))
	binary.LittleEndian.PutUint64(payload, uint64(s.seq))
	copy(payload[8:], s.scratch)
	if err := s.log.Append(payload); err != nil {
		panic(fmt.Sprintf("stream: WAL append: %v", err))
	}
	if r.Kind == KindSystem {
		s.syncTick()
	}
	if s.Next != nil {
		s.Next.OnRecord(r)
	}
}

// syncTick is the tick-boundary durability point: fsync the WAL, then
// persist the newest engine checkpoint if it advanced — in that order,
// so a persisted checkpoint never covers unsynced frames.
func (s *Store) syncTick() {
	if err := s.log.Sync(); err != nil {
		panic(fmt.Sprintf("stream: WAL sync: %v", err))
	}
	if err := s.persistCheckpoint(); err != nil {
		panic(fmt.Sprintf("stream: checkpoint persist: %v", err))
	}
}

// persistCheckpoint writes the engine's newest checkpoint if it advanced
// past the persisted one.
func (s *Store) persistCheckpoint() error {
	if s.eng == nil {
		return nil
	}
	cp := s.eng.LastCheckpoint()
	if cp == nil || cp.Records <= s.cpPersisted {
		return nil
	}
	if err := durable.WriteChecked(s.fs, filepath.Join(s.dir, checkpointFile), EncodeCheckpoint(cp)); err != nil {
		return err
	}
	s.cpPersisted = cp.Records
	return nil
}

// Close syncs the WAL, persists the newest checkpoint, and closes the
// log. The log is closed on every path; a failed sync skips the persist
// (a checkpoint must never cover unsynced frames), and the first error
// is returned.
func (s *Store) Close() error {
	err := s.log.Sync()
	if err == nil {
		err = s.persistCheckpoint()
	}
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadStream replays the durable record stream in dir, calling deliver
// with each record's sequence number and canonical line encoding. This
// is the read side of the store's output contract: what ReadStream
// yields is, byte for byte, the stream the (possibly crash-riddled) run
// emitted.
func ReadStream(fsys durable.FS, dir string, deliver func(seq int64, line []byte) error) error {
	log, err := durable.OpenLog(fsys, dir, durable.Options{Replay: replayFrames(dir, deliver)})
	if err != nil {
		return err
	}
	return log.Close()
}
