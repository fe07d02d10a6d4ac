package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// ctl runs one powerctl invocation against the given store, failing the
// test on error and returning stdout.
func ctl(t *testing.T, state string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	full := append([]string{"-state", state}, args...)
	if err := run(full, &stdout, &stderr); err != nil {
		t.Fatalf("powerctl %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestRoundTrip is the end-to-end CLI contract: create structure, set a
// budget, ingest a real run's roll-up snapshot, and read everything back
// through list, stats, and inspect — all via the persistent JSON store.
func TestRoundTrip(t *testing.T) {
	state := filepath.Join(t.TempDir(), "hierarchy.json")

	ctl(t, state, "create", "tenant", "acme")
	ctl(t, state, "create", "service", "acme", "web")
	ctl(t, state, "create", "service", "mallory", "burn")
	ctl(t, state, "budget", "mallory", "-power", "12")

	out := ctl(t, state, "list")
	for _, want := range []string{"acme/web", "mallory/burn", "budget: power 12 W"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}

	// A real simulated run filed under the same hierarchy, exported as a
	// snapshot and ingested into the store.
	m, err := experiments.NewMachine(cpu.SandyBridge, core.ApproachChipShare, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewHierarchy()
	m.Fac.AttachHierarchy(h)
	rig := m.Deploy(workload.Stress{})
	rig.Gen.ServiceFor = func(string) (string, string) { return "acme", "web" }
	rig.DriveRate(50, 2*sim.Second)
	m.Eng.RunUntil(3 * sim.Second)

	snap := h.Snapshot()
	tot := snap.FindTenant("acme").Totals()
	if tot.Requests == 0 || tot.EnergyJ() <= 0 {
		t.Fatalf("run produced no usage to ingest: %+v", tot)
	}
	snapPath := filepath.Join(t.TempDir(), "run.json")
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out = ctl(t, state, "ingest", snapPath)
	if !strings.Contains(out, "merged 1 tenants") {
		t.Errorf("unexpected ingest report: %s", out)
	}
	// Ingesting the same roll-up twice must accumulate, not overwrite.
	ctl(t, state, "ingest", snapPath)

	var inspected core.TenantSnapshot
	if err := json.Unmarshal([]byte(ctl(t, state, "inspect", "acme")), &inspected); err != nil {
		t.Fatalf("inspect output is not a tenant snapshot: %v", err)
	}
	got := inspected.Totals()
	if got.Requests != 2*tot.Requests {
		t.Errorf("after two ingests: %d requests, want %d", got.Requests, 2*tot.Requests)
	}
	if diff := got.EnergyJ() - 2*tot.EnergyJ(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("after two ingests: %.9f J, want %.9f J", got.EnergyJ(), 2*tot.EnergyJ())
	}

	stats := ctl(t, state, "stats")
	if !strings.Contains(stats, "acme/web") || !strings.Contains(stats, "total") {
		t.Errorf("stats output missing rows:\n%s", stats)
	}

	// The budget survives the ingest (the run snapshot carries none) and
	// the store round-trips through a reconstructed live hierarchy.
	var full core.HierarchySnapshot
	if err := json.Unmarshal([]byte(ctl(t, state, "inspect")), &full); err != nil {
		t.Fatal(err)
	}
	if b := full.FindTenant("mallory").Budget; b.PowerW != 12 {
		t.Errorf("mallory budget after ingest: %+v, want PowerW 12", b)
	}
	if _, err := core.HierarchyFromSnapshot(full); err != nil {
		t.Errorf("stored snapshot does not rebuild a live hierarchy: %v", err)
	}
}

// TestErrors pins the CLI's refusal paths: a subcommand is required, the
// store flag is required, unknown tenants fail inspect, and ingest rejects
// foreign snapshot versions.
func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, &out); err == nil {
		t.Error("no arguments: want an error")
	}
	if err := run([]string{"list"}, &out, &out); err == nil {
		t.Error("missing -state: want an error")
	}
	state := filepath.Join(t.TempDir(), "hierarchy.json")
	if err := run([]string{"-state", state, "frobnicate"}, &out, &out); err == nil {
		t.Error("unknown subcommand: want an error")
	}
	if err := run([]string{"-state", state, "inspect", "ghost"}, &out, &out); err == nil {
		t.Error("inspect of unknown tenant: want an error")
	}
	if err := run([]string{"-state", state, "budget", "acme", "-power", "-1"}, &out, &out); err == nil {
		t.Error("negative budget: want an error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-state", state, "ingest", bad}, &out, &out); err == nil {
		t.Error("ingest of foreign version: want an error")
	}
}
