package core

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"

	"powercontainers/internal/durable"
)

// ErrCorruptState marks a persisted hierarchy store whose checksum does
// not cover its contents: damage, not a version skew or a torn write
// (torn writes fail JSON decoding; version skews have their own error).
var ErrCorruptState = errors.New("core: hierarchy state corrupt")

// JSONState persists hierarchy configuration and roll-up snapshots: one
// versioned, checksummed JSON document at Path, which powerctl and
// long-lived deployments share. Writes go through internal/durable's full
// fsync-before-rename discipline (temp file, fsync, atomic rename,
// directory fsync), so a crash mid-save never leaves a torn or
// half-durable store behind; the embedded CRC32C catches bit rot that
// atomicity cannot.
type JSONState struct {
	Path string
	// FS is the filesystem seam (default the real filesystem); crash
	// tests inject durable.MemFS here.
	FS durable.FS
}

// NewJSONState creates a file-backed store at path (the file itself is
// created on first Save).
func NewJSONState(path string) *JSONState { return &JSONState{Path: path} }

func (j *JSONState) fs() durable.FS {
	if j.FS != nil {
		return j.FS
	}
	return durable.OSFS{}
}

// snapshotChecksum computes the CRC32C (hex) of the snapshot's canonical
// compact encoding with the checksum field cleared. snap is a value, so
// clearing the field never touches the caller's copy.
func snapshotChecksum(snap HierarchySnapshot) (string, error) {
	snap.Checksum = ""
	data, err := json.Marshal(snap)
	if err != nil {
		return "", fmt.Errorf("core: encode hierarchy state: %w", err)
	}
	sum := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	return hex.EncodeToString([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)}), nil
}

// Save persists the snapshot, replacing any previous one.
func (j *JSONState) Save(snap HierarchySnapshot) error {
	if err := checkSnapshotVersion(snap); err != nil {
		return err
	}
	sum, err := snapshotChecksum(snap)
	if err != nil {
		return err
	}
	snap.Checksum = sum
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode hierarchy state: %w", err)
	}
	data = append(data, '\n')
	if err := durable.WriteFileAtomic(j.fs(), j.Path, data); err != nil {
		return fmt.Errorf("core: write hierarchy state: %w", err)
	}
	return nil
}

// Load returns the stored snapshot. ok is false when nothing has been
// saved yet, in which case an empty current-version snapshot is returned.
func (j *JSONState) Load() (HierarchySnapshot, bool, error) {
	data, err := j.fs().ReadFile(j.Path)
	if errors.Is(err, fs.ErrNotExist) {
		return HierarchySnapshot{Version: SnapshotVersion}, false, nil
	}
	if err != nil {
		return HierarchySnapshot{}, false, fmt.Errorf("core: read hierarchy state: %w", err)
	}
	var snap HierarchySnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return HierarchySnapshot{}, false, fmt.Errorf("core: decode hierarchy state %s: %w", j.Path, err)
	}
	if err := checkSnapshotVersion(snap); err != nil {
		return HierarchySnapshot{}, false, fmt.Errorf("core: %s: %w", j.Path, err)
	}
	if snap.Checksum != "" {
		want, err := snapshotChecksum(snap)
		if err != nil {
			return HierarchySnapshot{}, false, err
		}
		if snap.Checksum != want {
			return HierarchySnapshot{}, false, fmt.Errorf("%w: %s: checksum %s, contents hash to %s", ErrCorruptState, j.Path, snap.Checksum, want)
		}
	}
	snap.Checksum = ""
	return snap, true, nil
}

func checkSnapshotVersion(snap HierarchySnapshot) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("core: hierarchy state version %d (want %d)", snap.Version, SnapshotVersion)
	}
	return nil
}
