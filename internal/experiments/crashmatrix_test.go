package experiments

import (
	"strings"
	"testing"
)

// TestCrashMatrixExactRecovery is the tentpole property: for every crash
// point in the default matrix — WAL appends torn at several depths, pre-
// and post-fsync deaths, the checkpoint write/fsync/rename pipeline, and
// bit-flip/truncation damage applied while the process is down — the
// restarted attempt recovers a durable stream whose SHA-256 equals the
// uninterrupted golden run's. Every plan must actually fire (a crash
// point that never triggers proves nothing), and the sweep must exercise
// both recovery modes.
func TestCrashMatrixExactRecovery(t *testing.T) {
	r, err := CrashMatrix(NewRunExec(0), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) < 12 {
		t.Fatalf("matrix has %d crash points, want ≥ 12", len(r.Cells))
	}
	if r.Records == 0 || r.GoldenSHA == "" {
		t.Fatalf("golden run empty: %d records, sha %q", r.Records, r.GoldenSHA)
	}
	modes := map[string]int{}
	for _, c := range r.Cells {
		if c.Restarts < 1 {
			t.Errorf("%s: crash never fired (0 restarts)", c.Spec)
		}
		if !c.Exact {
			t.Errorf("%s: recovered stream sha %s != golden %s (frontier %d, mode %s)",
				c.Spec, c.SHA, r.GoldenSHA, c.Frontier, c.Mode)
		}
		modes[c.Mode]++
	}
	if modes["checkpoint"] == 0 || modes["scratch"] == 0 {
		t.Errorf("sweep did not exercise both recovery modes: %v", modes)
	}
	// Corruption cells must have needed a tail repair somewhere.
	repaired := 0
	for _, c := range r.Cells {
		if strings.Contains(c.Spec, "corrupt:") && c.Truncations > 0 {
			repaired++
		}
	}
	if repaired == 0 {
		t.Error("no corruption cell recorded a WAL tail repair")
	}
	if !strings.Contains(r.Render(), "YES") {
		t.Fatal("render missing exact column")
	}
}
