package experiments

import (
	"strings"
	"testing"
)

// TestStreamEquivIdenticalToBatch is the experiment-level acceptance
// criterion of the streaming engine: on the fig8 trace (SandyBridge,
// stress workload, both load levels, all three attribution approaches)
// the streaming engine's per-request accounting hashes equal the batch
// harness's in every cell, and the streaming arm's rendered fig8-format
// validation table is byte-identical to the batch renderer's.
func TestStreamEquivIdenticalToBatch(t *testing.T) {
	r, err := StreamEquiv(Exec{Jobs: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(r.Cells))
	}
	for _, c := range r.Cells {
		if !c.Identical() {
			t.Errorf("%s/%s: accounting hashes differ: batch %s, stream %s",
				c.Load, c.Approach, c.BatchHash, c.StreamHash)
		}
		if c.Records == 0 {
			t.Errorf("%s/%s: streaming arm emitted no records", c.Load, c.Approach)
		}
	}
	batch, streamed := r.BatchTable(), r.StreamTable()
	stripTitle := func(s string) string {
		_, rest, _ := strings.Cut(s, "\n")
		return rest
	}
	if stripTitle(batch) != stripTitle(streamed) {
		t.Fatalf("streaming fig8 table not byte-identical to batch renderer:\n--- batch ---\n%s\n--- stream ---\n%s", batch, streamed)
	}
	if !r.AllIdentical() {
		t.Fatal("AllIdentical is false on an identical grid")
	}
	if !strings.Contains(r.Render(), "YES") || strings.Contains(r.Render(), "\tNO") {
		t.Fatalf("render disagrees with cells:\n%s", r.Render())
	}
}
