package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powercontainers/internal/durable"
)

func sampleSnapshot() HierarchySnapshot {
	var snap HierarchySnapshot
	snap.Version = SnapshotVersion
	snap.EnsureTenant("acme").Budget = Budget{PowerW: 25, EnergyJ: 100}
	s := snap.EnsureService("acme", "web")
	s.CPUEnergyJ = 1.5
	s.Requests = 7
	snap.EnsureService("mallory", "burn")
	return snap
}

func TestJSONStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hierarchy.json")
	st := NewJSONState(path)
	if _, ok, err := st.Load(); err != nil || ok {
		t.Fatalf("missing file: ok=%v err=%v", ok, err)
	}
	want := sampleSnapshot()
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Load()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got.FindTenant("acme") == nil || got.FindTenant("acme").Budget.PowerW != 25 {
		t.Fatalf("loaded = %+v", got)
	}
	if got.FindTenant("acme").Services[0].CPUEnergyJ != 1.5 {
		t.Fatal("usage not persisted")
	}
	// The write is atomic: no temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	// Round-trip through the registry builder.
	if _, err := HierarchyFromSnapshot(got); err != nil {
		t.Fatal(err)
	}
}

func TestJSONStateRejectsCorruptAndWrongVersion(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewJSONState(bad).Load(); err == nil {
		t.Fatal("corrupt store accepted")
	}
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewJSONState(old).Load(); err == nil {
		t.Fatal("wrong version accepted")
	}
	var v0 HierarchySnapshot
	if err := NewJSONState(filepath.Join(dir, "x.json")).Save(v0); err == nil {
		t.Fatal("unversioned snapshot saved")
	}
}

// TestJSONStateRejectsBitFlip is the checksum half of corruption
// detection: a store whose JSON still parses but whose bytes were
// silently flipped must fail with ErrCorruptState — the case the
// existing torn-store ({nope) test cannot catch.
func TestJSONStateRejectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hierarchy.json")
	st := NewJSONState(path)
	if err := st.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside a stored value, keeping the JSON well-formed.
	idx := strings.Index(string(data), `"requests": 7`)
	if idx < 0 {
		t.Fatalf("fixture drifted: %s", data)
	}
	data[idx+len(`"requests": `)] = '8'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("bit-flipped store: %v, want ErrCorruptState", err)
	}

	// A legacy store with no checksum field still loads.
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"version": 1, "tenants": [{"name": "acme"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := NewJSONState(legacy).Load()
	if err != nil || !ok || snap.FindTenant("acme") == nil {
		t.Fatalf("legacy store refused: ok=%v err=%v", ok, err)
	}
}

// TestJSONStateSurvivesCrashDuringSave cuts power at every filesystem
// step of a Save over the in-memory backend: whatever the cut, a
// subsequent Load sees either the complete old snapshot or the complete
// new one.
func TestJSONStateSurvivesCrashDuringSave(t *testing.T) {
	for keep := 0; keep <= 64; keep += 16 {
		mem := durable.NewMemFS()
		st := &JSONState{Path: "state/hierarchy.json", FS: mem}
		if err := mem.MkdirAll("state"); err != nil {
			t.Fatal(err)
		}
		old := sampleSnapshot()
		if err := st.Save(old); err != nil {
			t.Fatal(err)
		}
		next := sampleSnapshot()
		next.FindTenant("acme").Services[0].Requests = 99

		// Begin the replacement write by hand, then cut power before the
		// temp is synced: keep bytes of it survive as a torn prefix.
		sum, err := snapshotChecksum(next)
		if err != nil {
			t.Fatal(err)
		}
		next.Checksum = sum
		data, err := json.MarshalIndent(next, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		w, err := mem.Create("state/.hierarchy.json.tmp")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		mem.Crash("state/.hierarchy.json.tmp", keep)

		snap, ok, err := st.Load()
		if err != nil || !ok {
			t.Fatalf("keep=%d: old snapshot lost: ok=%v err=%v", keep, ok, err)
		}
		if snap.FindTenant("acme").Services[0].Requests != 7 {
			t.Fatalf("keep=%d: torn save leaked into the store", keep)
		}
	}
}
