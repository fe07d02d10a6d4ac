package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"

	"powercontainers/internal/sim"
)

// Segment layout. Every segment starts with a 12-byte header — an 8-byte
// magic naming the format version and a 4-byte little-endian segment
// index — followed by frames. A frame is [4-byte LE payload length]
// [4-byte LE CRC32C of payload][payload]. CRC32C (Castagnoli) is the
// checksum production WALs use; the length prefix bounds reads, the CRC
// catches both bit rot and torn writes.
const (
	segMagic    = "PCWAL001"
	segHeader   = len(segMagic) + 4
	frameHeader = 8
	// maxFrame bounds a single payload; a length above it is corruption,
	// not a huge record.
	maxFrame = 1 << 26
)

// DefaultMaxSegmentBytes is the auto-rotation threshold: Append starts a
// new segment once the current one would exceed it.
const DefaultMaxSegmentBytes = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel all interior-corruption failures match with
// errors.Is: damage recovery must not repair silently, because the frames
// beyond it are already durable and a truncation there would tear a hole
// in the record sequence.
var ErrCorrupt = errors.New("durable: corrupt")

// CorruptError reports unrecoverable log or blob damage.
type CorruptError struct {
	Path   string
	Off    int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("durable: %s corrupt at byte %d: %s", e.Path, e.Off, e.Reason)
}

// Unwrap lets errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Options configures OpenLog.
type Options struct {
	// Replay receives every recovered payload in append order before
	// OpenLog returns. A nil Replay skips delivery (the frames still
	// validate); a Replay error aborts the open.
	Replay func(payload []byte) error
	// Observer sees tail truncations (sim.KindWALTruncate); may be nil.
	Observer sim.Observer
	// MaxSegmentBytes caps a segment (default DefaultMaxSegmentBytes).
	MaxSegmentBytes int64
}

// Log is a single-writer segmented append log. Appends accumulate in the
// current segment; Sync makes them durable; the segment rolls over
// automatically at MaxSegmentBytes. Reopening a log after a crash runs
// the recovery rule: a torn tail in the final segment is truncated
// (reported to the observer), corruption anywhere else is an
// error.
type Log struct {
	fs  FS
	dir string
	obs sim.Observer
	max int64

	seg     int  // current segment index
	f       File // open append handle on the current segment
	segSize int64
	frames  int64 // frames ever appended, recovered included
}

// segName renders a segment file name.
func segName(idx int) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// parseSegName extracts a segment index, reporting whether the name is a
// segment file at all.
func parseSegName(name string) (int, bool) {
	s, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".seg")
	if !ok || len(s) != 8 {
		return 0, false
	}
	idx, err := strconv.Atoi(s)
	if err != nil || idx <= 0 {
		return 0, false
	}
	return idx, true
}

// segmentHeader renders the 12-byte header for a segment index.
func segmentHeader(idx int) []byte {
	h := make([]byte, segHeader)
	copy(h, segMagic)
	binary.LittleEndian.PutUint32(h[len(segMagic):], uint32(idx))
	return h
}

// scanSegment walks one segment's frames. final selects the recovery
// rule: in the final segment a bad header, frame, or CRC truncates the
// scan there (goodLen is the byte offset to keep); in an interior
// segment the same condition is a CorruptError, because later segments
// hold durable frames that a truncation would orphan.
func scanSegment(path string, data []byte, idx int, final bool, deliver func(payload []byte) error) (goodLen int64, frames int64, err error) {
	bad := func(off int64, reason string) (int64, int64, error) {
		if final {
			return off, frames, nil
		}
		return off, frames, &CorruptError{Path: path, Off: off, Reason: reason}
	}
	if len(data) < segHeader || string(data[:len(segMagic)]) != segMagic {
		return bad(0, "missing or torn segment header")
	}
	if got := int(binary.LittleEndian.Uint32(data[len(segMagic):segHeader])); got != idx {
		// A wrong index is never a torn write: the header was synced when
		// the segment was created.
		return 0, 0, &CorruptError{Path: path, Off: int64(len(segMagic)), Reason: fmt.Sprintf("segment index %d, want %d", got, idx)}
	}
	off := int64(segHeader)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return bad(off, "torn frame header")
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxFrame {
			return bad(off, fmt.Sprintf("frame length %d exceeds limit", n))
		}
		if int64(len(rest)) < frameHeader+int64(n) {
			return bad(off, "torn frame payload")
		}
		payload := rest[frameHeader : frameHeader+int64(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			// A checksum failure is only a torn write when nothing follows
			// the frame; durable frames after it prove interior damage, which
			// must not be truncated away even in the final segment.
			if frameHeader+int64(n) < int64(len(rest)) {
				return off, frames, &CorruptError{Path: path, Off: off, Reason: "frame CRC32C mismatch before end of log"}
			}
			return bad(off, "frame CRC32C mismatch")
		}
		if deliver != nil {
			if err := deliver(payload); err != nil {
				return off, frames, err
			}
		}
		frames++
		off += frameHeader + int64(n)
	}
	return off, frames, nil
}

// OpenLog opens (or creates) the segment log in dir, validating and
// replaying every durable frame and repairing a torn tail before
// returning a handle positioned for append.
func OpenLog(fsys FS, dir string, opts Options) (*Log, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: open log: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: open log: %w", err)
	}
	var segs []int
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			segs = append(segs, idx)
		}
	}
	// ReadDir sorts names; zero-padded segment names sort numerically.
	for i, idx := range segs {
		if idx != i+1 {
			return nil, &CorruptError{Path: filepath.Join(dir, segName(idx)), Off: 0,
				Reason: fmt.Sprintf("segment sequence broken: found segment %d at position %d", idx, i+1)}
		}
	}
	l := &Log{fs: fsys, dir: dir, obs: opts.Observer, max: opts.MaxSegmentBytes}
	if len(segs) == 0 {
		if err := l.startSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	for i, idx := range segs {
		final := i == len(segs)-1
		path := filepath.Join(dir, segName(idx))
		data, err := l.fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("durable: open log: %w", err)
		}
		goodLen, frames, err := scanSegment(path, data, idx, final, opts.Replay)
		if err != nil {
			return nil, err
		}
		l.frames += frames
		if !final {
			continue
		}
		if lost := int64(len(data)) - goodLen; lost > 0 {
			if err := l.fs.Truncate(path, goodLen); err != nil {
				return nil, fmt.Errorf("durable: truncate torn tail: %w", err)
			}
			if l.obs != nil {
				l.obs.Observe(sim.Event{Kind: sim.KindWALTruncate, Name: path, N: goodLen, M: lost, Detail: "torn tail"})
			}
		}
		if goodLen < int64(segHeader) {
			// The whole final segment was torn away, header included;
			// rewrite it so the segment is valid again.
			f, err := l.fs.Create(path)
			if err != nil {
				return nil, fmt.Errorf("durable: rewrite torn segment: %w", err)
			}
			if _, err := f.Write(segmentHeader(idx)); err != nil {
				f.Close()
				return nil, fmt.Errorf("durable: rewrite torn segment: %w", err)
			}
			if err := f.Close(); err != nil {
				return nil, fmt.Errorf("durable: rewrite torn segment: %w", err)
			}
			goodLen = int64(segHeader)
		}
		f, err := l.fs.OpenAppend(path)
		if err != nil {
			return nil, fmt.Errorf("durable: open log: %w", err)
		}
		l.seg, l.f, l.segSize = idx, f, goodLen
	}
	return l, nil
}

// startSegment creates and enters segment idx.
func (l *Log) startSegment(idx int) error {
	path := filepath.Join(l.dir, segName(idx))
	f, err := l.fs.Create(path)
	if err != nil {
		return fmt.Errorf("durable: start segment: %w", err)
	}
	if _, err := f.Write(segmentHeader(idx)); err != nil {
		f.Close()
		return fmt.Errorf("durable: start segment: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("durable: start segment: %w", err)
	}
	l.seg, l.f, l.segSize = idx, f, int64(segHeader)
	return nil
}

// Frames returns the total number of frames in the log, recovered plus
// appended.
func (l *Log) Frames() int64 { return l.frames }

// Segment returns the current segment index.
func (l *Log) Segment() int { return l.seg }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// SegmentPath returns the path of segment idx.
func (l *Log) SegmentPath(idx int) string { return filepath.Join(l.dir, segName(idx)) }

// Append adds one frame. The frame is written in a single Write call, so
// a crash mid-append tears at most this frame — exactly the case the
// recovery rule repairs. Durability requires a following Sync.
func (l *Log) Append(payload []byte) error {
	if int64(len(payload)) > maxFrame {
		return fmt.Errorf("durable: payload %d bytes exceeds frame limit", len(payload))
	}
	if l.segSize+frameHeader+int64(len(payload)) > l.max && l.segSize > int64(segHeader) {
		if err := l.Rotate(); err != nil {
			return err
		}
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeader:], payload)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	l.segSize += int64(len(buf))
	l.frames++
	return nil
}

// Sync makes every appended frame durable.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync: %w", err)
	}
	return nil
}

// Rotate syncs and closes the current segment and starts the next one.
func (l *Log) Rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("durable: rotate: %w", err)
	}
	return l.startSegment(l.seg + 1)
}

// Close syncs and closes the log. The segment file is closed even when
// the sync fails; the first error is returned.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
