package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

func TestPercentileSelection(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 … 1, unsorted
	}
	// Nearest rank: p99 of 1..1000 is the 990th smallest, with ten above.
	got, err := tailAt(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples: %v", err)
	}
	if got.Value != 990 || got.Samples != 1000 || got.Beyond != 10 {
		t.Fatalf("p99 over 1000 samples = %+v, want value 990, 1000 samples, 10 beyond", got)
	}
	// One sample fewer leaves only nine above the p99: not reportable.
	if got, err := tailAt(xs[:999], 0.99); err == nil {
		t.Fatalf("p99 over 999 samples accepted with %d beyond", got.Beyond)
	}
	// The steady ticks of one episode carry a p99 on both stream workloads.
	for _, iv := range []sim.Time{power.RecorderInterval, sim.Second} {
		n := episodeTicks - steadyFrom(iv)
		if _, err := tailAt(make([]float64, n), 0.99); err != nil {
			t.Errorf("meter interval %v: %d steady ticks: %v", iv, n, err)
		}
	}
	if v, beyond := percentile([]float64{7}, 0.5); v != 7 || beyond != 0 {
		t.Errorf("median of one sample = %v with %d beyond", v, beyond)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestSteadyStateAndErrorWindow(t *testing.T) {
	// On-chip meter: the 8192-bucket modeled ring fills last, after 82 ticks.
	if got := steadyFrom(power.RecorderInterval); got != 82 {
		t.Errorf("steady state on the chip meter from tick %d, want 82", got)
	}
	// Wall meter: its rings cannot fill in an episode; the 16 s warm-up rules.
	if got := steadyFrom(sim.Second); got != 160 {
		t.Errorf("steady state on the wall meter from tick %d, want 160", got)
	}
	if from, to := errWindow(sim.Second); from != 160 || to != 1170 {
		t.Errorf("wall-meter error window ticks [%d, %d], want [160, 1170]", from, to)
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := &span{Start: 100, Busy: 100, Children: []*span{
		{Start: 100, Busy: 30},  // [100, 130)
		{Start: 120, Busy: 30},  // [120, 150): overlaps the first, union 50
		{Start: 190, Busy: 50},  // clipped to [190, 200): 10
		{Start: -1, Busy: 15},   // aggregated: counts its busy time
		{Start: 300, Busy: 100}, // outside the parent: covers nothing
	}}
	if got := s.self(); got != 25 {
		t.Errorf("self = %d, want 100 - 50 - 10 - 15 = 25", got)
	}
	over := &span{Start: 0, Busy: 10, Children: []*span{{Start: -1, Busy: 40}}}
	if got := over.self(); got != 0 {
		t.Errorf("self of an over-covered span = %d, want 0", got)
	}

	// A tick: the root is fully covered by its three children, and each
	// child's self time excludes the calls aggregated under it.
	tt := tickTrace{Tick: 7, T0: 1000, T1: 1400, T2: 2000}
	tt.Acc.hooks[hookInterrupt] = agg{N: 3, Ns: 90}
	tt.Acc.hooks[hookSwitch] = agg{N: 2, Ns: 60}
	tt.Acc.meterAdvance = agg{N: 1, Ns: 50}
	tt.Acc.meterConsume = agg{N: 1, Ns: 20}
	tt.Acc.sink = agg{N: 5, Ns: 300}
	tt.Acc.walWrite = agg{N: 5, Ns: 40}
	tt.Acc.walSync = agg{N: 1, Ns: 100}
	root := tt.root()
	if root.ID != 7 || root.Busy != 1000 || root.self() != 0 {
		t.Fatalf("root id %d busy %d self %d, want 7, 1000, 0", root.ID, root.Busy, root.self())
	}
	want := map[string]int64{"sim.advance": 400 - 150 - 50, "stream.consume": 600 - 300 - 20, "stream.sink": 300 - 140}
	for _, c := range root.Children {
		if got := c.self(); got != want[c.Name] {
			t.Errorf("%s self = %d, want %d", c.Name, got, want[c.Name])
		}
	}
}

// TestTracedEpisodeMatchesUntraced runs one episode of each stream
// workload with and without the seam wrappers: the record streams must
// hash equal, and the wrappers must have seen the calls they forward.
func TestTracedEpisodeMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("streams two full episodes per workload")
	}
	for _, w := range []streamWorkload{streamDurable, streamDense} {
		t.Run(w.name, func(t *testing.T) {
			plainCk, tracedCk := &checks{}, &checks{}
			plain, err := w.runEpisode(3, t.TempDir(), nil, plainCk)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := w.runEpisode(3, t.TempDir(), tr, tracedCk)
			if err != nil {
				t.Fatal(err)
			}
			for _, ck := range []*checks{plainCk, tracedCk} {
				for _, c := range ck.list {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
			}
			if traced.hash != plain.hash || traced.records != plain.records || traced.errPct != plain.errPct {
				t.Fatalf("traced episode: %d records sha256 %s err %g; untraced: %d records sha256 %s err %g",
					traced.records, traced.hash, traced.errPct, plain.records, plain.hash, plain.errPct)
			}
			var sum tickAcc
			for _, tt := range traced.ticks {
				hn, _ := tt.Acc.hookBusy()
				sum.hooks[hookInterrupt].N += hn
				sum.meterAdvance.N += tt.Acc.meterAdvance.N
				sum.meterConsume.N += tt.Acc.meterConsume.N
				sum.sink.N += tt.Acc.sink.N
				sum.walSync.N += tt.Acc.walSync.N
				sum.ckptsPersisted += tt.Acc.ckptsPersisted
			}
			if sum.hooks[hookInterrupt].N == 0 || sum.meterAdvance.N+sum.meterConsume.N == 0 || sum.sink.N != traced.records {
				t.Errorf("wrappers saw %d hooks, %d meter reads, %d sink records (stream has %d)",
					sum.hooks[hookInterrupt].N, sum.meterAdvance.N+sum.meterConsume.N, sum.sink.N, traced.records)
			}
			if w.durable && (sum.walSync.N < episodeTicks || sum.ckptsPersisted != episodeTicks/checkpointEvery) {
				t.Errorf("FS wrapper saw %d WAL syncs and %d checkpoints over %d ticks", sum.walSync.N, sum.ckptsPersisted, episodeTicks)
			}
		})
	}
}

// TestMetricsDeclared checks that every metric a run prints is declared
// in BENCHMARK.json with the same unit, in the list the run's mode
// prints, under a well-formed name.
func TestMetricsDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		trace    int
		declared []struct{ Name, Unit string }
	}{{0, bench.EndToEnd}, {1, bench.PerLayer}} {
		units := map[string]string{}
		for _, m := range c.declared {
			units[m.Name] = m.Unit
		}
		for _, wl := range []string{"stream-durable", "stream-dense", "cluster3"} {
			res, _ := compose(options{workload: wl, seed: 2, trace: c.trace}, fakeMeasured())
			if len(res.Metrics) != len(c.declared) {
				t.Errorf("%s --trace %d prints %d metrics, BENCHMARK.json declares %d", wl, c.trace, len(res.Metrics), len(c.declared))
			}
			for name, m := range res.Metrics {
				if !valid.MatchString(name) {
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
				}
				if unit, ok := units[name]; !ok || unit != m.Unit {
					t.Errorf("%s --trace %d prints %s in %q; BENCHMARK.json declares %q", wl, c.trace, name, m.Unit, unit)
				}
			}
		}
	}
}

// fakeMeasured stands in for the children's reports.
func fakeMeasured() measured {
	rep := func(jobs int) *runReport {
		return &runReport{Jobs: jobs, Attempted: 1, RunS: []float64{1}, RecoveryS: []float64{1}, WallS: 1,
			Layers: map[string]float64{"sim.advance_us": 1}}
	}
	return measured{setups: []setupReport{{SetupS: 1}}, plain: rep(2), traced: rep(2), serial: rep(1)}
}

// TestDurableReferenceIsPcstreams checks that the stream-durable reference
// hash is the one pcstream -dir prints for the workload's flags.
func TestDurableReferenceIsPcstreams(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs pcstream")
	}
	w := streamDurable
	cmd := exec.Command("go", "run", "powercontainers/cmd/pcstream",
		"-dir", t.TempDir(), "-machine", w.machine.Name, "-workload", w.wl.Name(),
		"-load", strconv.FormatFloat(w.load, 'g', -1, 64), "-attribution", "recalibrated",
		"-duration", strconv.FormatFloat(float64(horizon)/float64(sim.Second), 'g', -1, 64),
		"-tick", strconv.FormatInt(int64(tickLen/sim.Millisecond), 10),
		"-seed", strconv.FormatUint(referenceSeed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("pcstream: %v\n%s", err, stderr.String())
	}
	m := regexp.MustCompile(`durable stream: \d+ records, 1 attempts, sha256 ([0-9a-f]{64})`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no durable stream hash in pcstream's output:\n%s", stderr.String())
	}
	if want := referenceHashes["stream-durable"]; m[1] != want {
		t.Errorf("pcstream -dir hash %s, reference %s", m[1], want)
	}
	if !strings.Contains(stderr.String(), "recovery: mode=fresh") {
		t.Errorf("pcstream did not start a fresh store:\n%s", stderr.String())
	}
}
