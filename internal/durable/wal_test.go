package durable

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"powercontainers/internal/sim"
)

// replayAll reopens the log and collects every recovered payload.
func replayAll(t *testing.T, fsys FS, dir string, obs sim.Observer) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, err := OpenLog(fsys, dir, Options{
		Replay:   func(p []byte) error { got = append(got, append([]byte(nil), p...)); return nil },
		Observer: obs,
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return l, got
}

func appendAll(t *testing.T, l *Log, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

type truncRecorder struct {
	calls []string
}

func (r *truncRecorder) Observe(e sim.Event) {
	if e.Kind == sim.KindWALTruncate {
		r.calls = append(r.calls, fmt.Sprintf("%s@%d-%d:%s", e.Name, e.N, e.M, e.Detail))
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	m := NewMemFS()
	l, got := replayAll(t, m, "wal", nil)
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d payloads", len(got))
	}
	payloads := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma with a longer body")}
	appendAll(t, l, payloads...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := replayAll(t, m, "wal", nil)
	if len(got) != len(payloads) {
		t.Fatalf("replayed %d payloads, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("payload %d = %q, want %q", i, got[i], payloads[i])
		}
	}
	if l2.Frames() != int64(len(payloads)) {
		t.Fatalf("Frames() = %d, want %d", l2.Frames(), len(payloads))
	}
}

func TestWALTornTailTruncatedAtEveryByte(t *testing.T) {
	// Build a reference log of three synced frames plus one unsynced frame,
	// then cut power keeping every possible torn prefix of the last append.
	build := func() (*MemFS, *Log) {
		m := NewMemFS()
		l, _ := replayAll(t, m, "wal", nil)
		appendAll(t, l, []byte("one"), []byte("two"), []byte("three"))
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		appendAll(t, l, []byte("four-unsynced"))
		return m, l
	}
	_, probe := build()
	tornLen := int(probe.segSize) // total bytes including the unsynced frame
	path := probe.SegmentPath(1)

	for keep := 0; keep < frameHeader+len("four-unsynced"); keep++ {
		m, _ := build()
		m.Crash(path, keep)
		rec := &truncRecorder{}
		_, got := replayAll(t, m, "wal", rec)
		if len(got) != 3 {
			t.Fatalf("keep=%d: recovered %d frames, want 3", keep, len(got))
		}
		if keep > 0 && len(rec.calls) != 1 {
			t.Fatalf("keep=%d: %d truncate observations, want 1", keep, len(rec.calls))
		}
		if keep == 0 && len(rec.calls) != 0 {
			t.Fatalf("keep=0: unexpected truncate observation %v", rec.calls)
		}
	}
	_ = tornLen
}

func TestWALBitFlipLastFrameTruncates(t *testing.T) {
	m := NewMemFS()
	l, _ := replayAll(t, m, "wal", nil)
	appendAll(t, l, []byte("first"), []byte("second"), []byte("last"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a payload byte of the final frame: CRC fails, and because it is
	// the final frame of the final segment the recovery rule truncates it.
	path := l.SegmentPath(1)
	if err := m.Corrupt(path, m.Size(path)-1, 0x40); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	rec := &truncRecorder{}
	_, got := replayAll(t, m, "wal", rec)
	if len(got) != 2 || string(got[1]) != "second" {
		t.Fatalf("recovered %q, want first two frames", got)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("truncate observations = %v, want exactly one", rec.calls)
	}
}

func TestWALInteriorCorruptionIsError(t *testing.T) {
	m := NewMemFS()
	l, _ := replayAll(t, m, "wal", nil)
	appendAll(t, l, []byte("first"), []byte("second"), []byte("third"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a byte inside the FIRST frame's payload: later durable frames
	// would be orphaned by a truncation, so this must refuse to open.
	path := l.SegmentPath(1)
	if err := m.Corrupt(path, int64(segHeader+frameHeader), 0x01); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	_, err := OpenLog(m, "wal", Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenLog after interior bit-flip: %v, want ErrCorrupt", err)
	}
}

func TestWALRotationAndInteriorSegmentCorruption(t *testing.T) {
	m := NewMemFS()
	l, _ := replayAll(t, m, "wal", nil)
	appendAll(t, l, []byte("seg1-a"), []byte("seg1-b"))
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendAll(t, l, []byte("seg2-a"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if l.Segment() != 2 {
		t.Fatalf("Segment() = %d, want 2", l.Segment())
	}

	l2, got := replayAll(t, m, "wal", nil)
	want := []string{"seg1-a", "seg1-b", "seg2-a"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i, w := range want {
		if string(got[i]) != w {
			t.Fatalf("frame %d = %q, want %q", i, got[i], w)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corruption in segment 1 is interior even though it hits that
	// segment's final frame: segment 2 exists after it.
	if err := m.Corrupt(l.SegmentPath(1), m.Size(l.SegmentPath(1))-1, 0x80); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	_, err := OpenLog(m, "wal", Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenLog with corrupt interior segment: %v, want ErrCorrupt", err)
	}
}

func TestWALAutoRotateAtSegmentCap(t *testing.T) {
	m := NewMemFS()
	l, err := OpenLog(m, "wal", Options{MaxSegmentBytes: 64})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("payload-%02d", i)
		want = append(want, p)
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if l.Segment() < 2 {
		t.Fatalf("expected auto-rotation past segment 1, still at %d", l.Segment())
	}
	var got []string
	if _, err := OpenLog(m, "wal", Options{
		MaxSegmentBytes: 64,
		Replay:          func(p []byte) error { got = append(got, string(p)); return nil },
	}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestWALMissingSegmentIsError(t *testing.T) {
	m := NewMemFS()
	l, _ := replayAll(t, m, "wal", nil)
	appendAll(t, l, []byte("a"))
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendAll(t, l, []byte("b"))
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendAll(t, l, []byte("c"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Remove(l.SegmentPath(2)); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	_, err := OpenLog(m, "wal", Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenLog with missing middle segment: %v, want ErrCorrupt", err)
	}
}

func TestWALAppendAfterRecoveryContinuesStream(t *testing.T) {
	m := NewMemFS()
	l, _ := replayAll(t, m, "wal", nil)
	appendAll(t, l, []byte("kept"))
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	appendAll(t, l, []byte("lost"))
	m.Crash("", 0) // power cut with nothing torn: unsynced frame vanishes

	l2, got := replayAll(t, m, "wal", nil)
	if len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("recovered %q, want just the synced frame", got)
	}
	appendAll(t, l2, []byte("resumed"))
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, got = replayAll(t, m, "wal", nil)
	if len(got) != 2 || string(got[1]) != "resumed" {
		t.Fatalf("after resume recovered %q, want [kept resumed]", got)
	}
}

func TestWALReplayErrorAborts(t *testing.T) {
	m := NewMemFS()
	l, _ := replayAll(t, m, "wal", nil)
	appendAll(t, l, []byte("x"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sentinel := errors.New("stop")
	_, err := OpenLog(m, "wal", Options{Replay: func([]byte) error { return sentinel }})
	if !errors.Is(err, sentinel) {
		t.Fatalf("OpenLog = %v, want replay error", err)
	}
}

// FuzzWALReplay feeds arbitrary bytes as a single-segment log and checks
// the recovery invariant: OpenLog either fails with a structured error or
// succeeds having truncated to a clean frame boundary, and a second open
// of the repaired log replays identical frames with no further repair.
func FuzzWALReplay(f *testing.F) {
	valid := append(segmentHeader(1), 0, 0, 0, 0, 0, 0, 0, 0) // header + empty frame (CRC of "" is 0)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), 0xff, 0xff))
	f.Add([]byte("PCWAL001garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMemFS()
		if err := m.MkdirAll("wal"); err != nil {
			t.Fatal(err)
		}
		w, err := m.Create("wal/" + segName(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		var first [][]byte
		l, err := OpenLog(m, "wal", Options{Replay: func(p []byte) error {
			first = append(first, append([]byte(nil), p...))
			return nil
		}})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("OpenLog failed without CorruptError: %v", err)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		var second [][]byte
		rec := &truncRecorder{}
		if _, err := OpenLog(m, "wal", Options{Observer: rec, Replay: func(p []byte) error {
			second = append(second, append([]byte(nil), p...))
			return nil
		}}); err != nil {
			t.Fatalf("second open of repaired log: %v", err)
		}
		if len(rec.calls) != 0 {
			t.Fatalf("second open repaired again: %v", rec.calls)
		}
		if len(first) != len(second) {
			t.Fatalf("replay not stable: %d then %d frames", len(first), len(second))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("frame %d differs between opens", i)
			}
		}
	})
}
