package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"powercontainers/internal/faults"
	"powercontainers/internal/stream"
)

// TestDurableStreamAttempts pins DurableStream.Run's attempt loop on the
// crashmatrix stream: attempt i runs armed with Crashes[i], a planned
// crash starts the next attempt, an attempt's error ends the run at once,
// and any other panic propagates.
func TestDurableStreamAttempts(t *testing.T) {
	const seed = 7
	as := NewRunExec(1).Assembly
	plans := func(t *testing.T, specs ...string) []*faults.CrashPlan {
		t.Helper()
		var out []*faults.CrashPlan
		for _, spec := range specs {
			p, err := faults.ParseCrashPlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return out
	}
	// failFirst makes d's first Sources call fail with fail, which either
	// returns an error or panics; later calls build the machine.
	failFirst := func(d *DurableStream, fail func() error) *int {
		build, calls := d.Sources, new(int)
		d.Sources = func() (stream.Sources, error) {
			if *calls++; *calls == 1 {
				return stream.Sources{}, fail()
			}
			return build()
		}
		return calls
	}
	golden := crashMatrixStream(as, seed, nil, nil)
	if _, err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	want, _, err := golden.Read(nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("three crashes", func(t *testing.T) {
		var log bytes.Buffer
		d := crashMatrixStream(as, seed, plans(t,
			"crash:op=sync,match=wal-,index=3",
			"crash:op=write,match=wal-,index=40,keep=6",
			"crash:op=rename,match=checkpoint.ck,index=2",
		), nil)
		d.Log = &log
		attempts, err := d.Run()
		if err != nil || attempts != 4 {
			t.Fatalf("Run = %d attempts, err %v; want 4 attempts\n%s", attempts, err, log.String())
		}
		if got, _, err := d.Read(nil); err != nil || got != want {
			t.Fatalf("stream sha256 %s (err %v) after three crashes, uninterrupted %s", got, err, want)
		}
		if !strings.Contains(log.String(), "restart 3: crash at rename(") {
			t.Fatalf("log does not report the third restart at the rename:\n%s", log.String())
		}
	})

	t.Run("plan never fires", func(t *testing.T) {
		d := crashMatrixStream(as, seed, plans(t, "crash:op=sync,match=wal-,index=100000"), nil)
		attempts, err := d.Run()
		if err != nil || attempts != 1 {
			t.Fatalf("Run = %d attempts, err %v; want 1 attempt", attempts, err)
		}
		if got, _, err := d.Read(nil); err != nil || got != want {
			t.Fatalf("stream sha256 %s (err %v), uninterrupted %s", got, err, want)
		}
	})

	t.Run("error returns at once", func(t *testing.T) {
		d := crashMatrixStream(as, seed, plans(t, "crash:op=sync,match=wal-,index=3", "crash:op=sync,match=wal-,index=7"), nil)
		refused := errors.New("machine refused")
		calls := failFirst(d, func() error { return refused })
		attempts, err := d.Run()
		if !errors.Is(err, refused) || attempts != 1 || *calls != 1 {
			t.Fatalf("Run = %d attempts, err %v, %d machines built; want the first attempt's error after 1", attempts, err, *calls)
		}
	})

	t.Run("foreign panic propagates", func(t *testing.T) {
		d := crashMatrixStream(as, seed, plans(t, "crash:op=sync,match=wal-,index=3"), nil)
		failFirst(d, func() error { panic("bug") })
		defer func() {
			if r := recover(); r != "bug" {
				t.Errorf("Run ended with panic %v (nil: it returned), want the armed attempt's panic", r)
			}
		}()
		d.Run()
	})
}
