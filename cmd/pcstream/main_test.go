package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunStreamsDeterministically: the same flags produce the
// byte-identical record stream, and the stream is non-trivial.
func TestRunStreamsDeterministically(t *testing.T) {
	args := []string{"-duration", "4", "-seed", "9"}
	var out1, out2, errb bytes.Buffer
	if err := run(args, &out1, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &out2, &errb); err != nil {
		t.Fatal(err)
	}
	if out1.Len() == 0 {
		t.Fatal("no records streamed")
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("identical flags produced different streams")
	}
	if !strings.HasPrefix(out1.String(), "c,") && !strings.HasPrefix(out1.String(), "s,") {
		t.Fatalf("unexpected stream leader: %q", out1.String()[:40])
	}
}

// TestRunStreamPinned pins pcstream's exact output: the SHA-256 of the
// plain run's stdout for one run per meter tap — the on-chip meter a
// SandyBridge recalibrates against and the Wattsup a Westmere does.
func TestRunStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		args []string
		sum  string
	}{
		{[]string{"-duration", "30", "-seed", "3"},
			"4f3a08d5b7d15bcc6db2f2a707fd14d213b479eff873596b6bc0902450be5909"},
		{[]string{"-machine", "Westmere", "-workload", "GAE-Vosao", "-load", "0.9", "-duration", "10", "-seed", "1"},
			"1bcee5373d6801973cf51bde8d27d0a4601d034fcb7aab115c957e7b48fad8f3"},
	} {
		var out, errb bytes.Buffer
		if err := run(tc.args, &out, &errb); err != nil {
			t.Fatalf("args %v: %v", tc.args, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Errorf("args %v: stream sha256 %s, want %s", tc.args, got, tc.sum)
		}
	}
}

// TestRunAcceptsSharedNames: -workload and -machine take the names the
// other entry points accept, in any case.
func TestRunAcceptsSharedNames(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "GAE-Hybrid"},
		{"-workload", "eventserver"},
		{"-machine", "westmere"},
	} {
		var out, errb bytes.Buffer
		if err := run(append(args, "-duration", "1"), &out, &errb); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
}

// TestRunFlagValidation: bad flag values surface as errors, not panics.
func TestRunFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-machine", "nope"},
		{"-attribution", "nope"},
		{"-duration", "0"},
		{"-duration", "NaN"},
		{"-duration", "Inf"},
		{"-duration", "1e12"}, // past sim.Time's int64 nanoseconds
		{"-load", "0"},
		{"-load", "-0.5"},
		{"-load", "NaN"},
		{"-load", "Inf"},
		{"extra"},
	} {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunDurableMatchesPlainRun: -dir streams through the WAL store and
// prints the stream read back from it — byte-identical to the plain run
// with the same flags. A rerun over the store recovers from its checkpoint
// and prints the stream of its own flags: the identical stream when
// nothing changed (nothing is appended twice), and the longer run's stream
// when -duration grew (the store continues from where it stopped).
func TestRunDurableMatchesPlainRun(t *testing.T) {
	for _, tc := range []struct {
		name          string
		seed          string
		first, second string // -duration of the two runs over one store
	}{
		{"rerun", "9", "4", "4"},
		{"continue", "11", "2.5", "6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flags := func(duration string) []string {
				return []string{"-duration", duration, "-seed", tc.seed, "-workload", "GAE-Vosao", "-load", "0.4"}
			}
			dir := filepath.Join(t.TempDir(), "wal")
			for i, step := range []struct{ duration, mode string }{
				{tc.first, "recovery: mode=fresh"},
				{tc.second, "recovery: mode=checkpoint"},
			} {
				var plain, durable, errb bytes.Buffer
				if err := run(flags(step.duration), &plain, &errb); err != nil {
					t.Fatal(err)
				}
				errb.Reset()
				if err := run(append([]string{"-dir", dir}, flags(step.duration)...), &durable, &errb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(durable.Bytes(), plain.Bytes()) {
					t.Fatalf("run %d (-duration %s): durable stream (%d bytes) differs from plain run (%d bytes)",
						i+1, step.duration, durable.Len(), plain.Len())
				}
				if !strings.Contains(errb.String(), step.mode) {
					t.Fatalf("run %d (-duration %s) did not report %q: %s", i+1, step.duration, step.mode, errb.String())
				}
			}
		})
	}
}

// TestRunDurableCrashRecovery is the CLI-level exactly-once contract:
// three injected crashes — mid-WAL-sync, a torn WAL append, and a death
// at the checkpoint rename — each kill an attempt, the next attempt
// recovers the store, and the final stdout is byte-identical to the
// uninterrupted run.
func TestRunDurableCrashRecovery(t *testing.T) {
	base := []string{"-duration", "4", "-seed", "9", "-workload", "GAE-Vosao", "-load", "0.4"}
	var plain, errb bytes.Buffer
	if err := run(base, &plain, &errb); err != nil {
		t.Fatal(err)
	}

	args := append([]string{
		"-dir", "wal",
		"-crash", "crash:op=sync,match=wal-,index=3",
		"-crash", "crash:op=write,match=wal-,index=40,keep=6",
		"-crash", "crash:op=rename,match=checkpoint.ck,index=2",
	}, base...)
	var got, serr bytes.Buffer
	if err := run(args, &got, &serr); err != nil {
		t.Fatalf("crashed run: %v\nstderr: %s", err, serr.String())
	}
	if !bytes.Equal(got.Bytes(), plain.Bytes()) {
		t.Fatalf("stream after 3 injected crashes (%d bytes) differs from uninterrupted run (%d bytes)\nstderr: %s",
			got.Len(), plain.Len(), serr.String())
	}
	if !strings.Contains(serr.String(), "restart 3:") {
		t.Fatalf("run did not report three restarts: %s", serr.String())
	}
	if !strings.Contains(serr.String(), "4 attempts") {
		t.Fatalf("summary missing attempt count: %s", serr.String())
	}
}

// TestRunDurableFlagValidation: the durable-mode flag combinations that
// cannot work are refused up front, as are restart-tuning flags pcstream
// does not define.
func TestRunDurableFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-crash", "crash:op=sync,index=1"},
		{"-dir", "d", "-crash", "nonsense"},
		{"-supervise"},
		{"-dir", "d", "-supervise"},
		{"-dir", "d", "-max-restarts", "3"},
		{"-dir", "d", "-backoff-ms", "0"},
	} {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
