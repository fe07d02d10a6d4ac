package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"time"

	"powercontainers/internal/align"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/experiments"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// Episode shape shared by both stream workloads. An episode streams
// episodeTicks ticks of 100 ms, so its load generator's horizon is
// 120.5 s; the durable store checkpoints every 10 ticks, so the episode
// stops five ticks past its last checkpoint, and stream-dense takes its
// in-memory checkpoint five ticks before the end to match.
const (
	episodeTicks    = 1205
	tickLen         = 100 * sim.Millisecond
	checkpointEvery = 10
	catchupTicks    = 5
	horizon         = episodeTicks * tickLen

	// Ring sizes of the engine's default configuration: steady state
	// starts once every ring that can fill within an episode is full.
	meterRing = 4096
	modelRing = 8192
	driftRing = 512

	// refitCalls is how many Recalibrator.Refit calls align.refit_us
	// averages over.
	refitCalls = 200
)

// streamWorkload is one stream workload: the pcstream flags it mirrors.
type streamWorkload struct {
	name    string
	machine cpu.MachineSpec
	wl      workload.Workload
	load    float64 // open-loop arrival rate as a fraction of peak
	durable bool    // stream into a WAL store on the real filesystem
}

var (
	streamDurable = streamWorkload{name: "stream-durable", machine: cpu.SandyBridge, wl: workload.Stress{}, load: 0.5, durable: true}
	streamDense   = streamWorkload{name: "stream-dense", machine: cpu.Westmere, wl: workload.GAE{}, load: 0.9}
)

func (w streamWorkload) config() stream.Config {
	cfg := stream.Config{Tick: tickLen}
	if w.durable {
		cfg.CheckpointEvery = checkpointEvery
	}
	return cfg
}

// rig is one assembled machine with the stream's sources.
type rig struct {
	m     *experiments.Machine
	src   stream.Sources
	recal *align.Recalibrator
}

// build assembles the machine exactly as pcstream does for the same
// flags. With a tracer it installs the Monitor and Meter wrappers.
func (w streamWorkload) build(seed uint64, tr *tracer) (*rig, error) {
	m, err := experiments.NewMachine(w.machine, core.ApproachRecalibrated, seed)
	if err != nil {
		return nil, err
	}
	dep := w.wl.Deploy(m.K, m.Rng.Fork(11))
	gen := server.NewLoadGen(m.K, m.Fac, dep)
	gen.RunOpenLoop(w.load*experiments.PeakRate(m.K.Spec, dep), horizon, m.Rng.Fork(13))
	r := m.Fac.Recalibrator()
	if r == nil {
		return nil, fmt.Errorf("%s: machine has no recalibrator", w.name)
	}
	var meter power.Meter = r.Meter
	if tr != nil {
		m.K.Monitor = &monitorWrap{inner: m.Fac, tr: tr}
		mw, err := wrapMeter(r.Meter, tr)
		if err != nil {
			return nil, err
		}
		r.Meter, meter = mw, mw
	}
	return &rig{m: m, src: stream.Sources{Eng: m.Eng, Fac: m.Fac, Meter: meter, Scope: r.Scope}, recal: r}, nil
}

// warmup is the recalibration warm-up experiments.RunOn uses before its
// validation window: 2 s against the on-chip meter, 16 s against a wall
// meter that samples once a second.
func warmup(meterInterval sim.Time) sim.Time {
	if meterInterval >= sim.Second {
		return 16 * sim.Second
	}
	return 2 * sim.Second
}

// ticksToFill is how many ticks a ring of n slots of width iv takes to
// fill.
func ticksToFill(n int, iv sim.Time) int {
	return int((sim.Time(n)*iv + tickLen - 1) / tickLen)
}

// steadyFrom returns the last warm-up tick: later ticks are steady state.
// Steady state starts once the meter ring (4096 samples), the modeled
// ring (8192 buckets) and the drift window (512 pairs, one per meter
// sample) are full, and not before the recalibration warm-up ends. A
// ring that cannot fill within an episode — the wall meter's, at one
// sample a second — is left out.
func steadyFrom(meterInterval sim.Time) int {
	s := max(ticksToFill(modelRing, power.RecorderInterval), int(warmup(meterInterval)/tickLen))
	for _, n := range []int{meterRing, driftRing} {
		if f := ticksToFill(n, meterInterval); f < episodeTicks {
			s = max(s, f)
		}
	}
	return s
}

// errWindow is the validation window of attrib_err_pct in ticks: from the
// end of the recalibration warm-up to 3 s before the last tick, rounded
// down to whole seconds so the wall meter's one-second windows tile it.
func errWindow(meterInterval sim.Time) (from, to int) {
	from = int(warmup(meterInterval) / tickLen)
	end := horizon - 3*sim.Second
	end -= end % sim.Second
	return from, int(end / tickLen)
}

const ticksPerSecond = int(sim.Second / tickLen)

// attributionError compares the facility's attributed energy, read at the
// whole seconds from t0 on, with the wall meter's measured active power.
// perSecond is the sum over the one-second intervals of |attributed −
// measured| divided by the summed measured energy; window is the same
// comparison made once over the whole window, Fig. 8's form.
func attributionError(m *experiments.Machine, t0 sim.Time, acct []float64) (perSecond, window float64, err error) {
	var absErr, total float64
	for k := 0; k+1 < len(acct); k++ {
		s := t0 + sim.Time(k)*sim.Second
		meas, err := experiments.WattsupActiveMean(m, m.Eng.Now(), s, s+sim.Second)
		if err != nil {
			return 0, 0, err
		}
		absErr += math.Abs(acct[k+1] - acct[k] - meas)
		total += meas
	}
	n := len(acct) - 1
	meas, err := experiments.WattsupActiveMean(m, m.Eng.Now(), t0, t0+sim.Time(n)*sim.Second)
	if err != nil {
		return 0, 0, err
	}
	attributed := (acct[n] - acct[0]) / float64(n)
	return 100 * absErr / total, 100 * math.Abs(attributed-meas) / meas, nil
}

// episode is what one stream episode measured.
type episode struct {
	tickMs       []float64 // every tick, in order
	runS         float64
	recoveryS    float64
	errPct       float64
	windowErrPct float64
	hash         string
	records      int64
	ticksRun     int
	steadyFrom   int // ticks after this one are steady state
	failedTick   bool

	recoveryAttempted bool
	recoveryFailed    bool

	// Traced episodes only.
	ticks      []tickTrace
	refits     [3]int // refits, rejected, fallbacks over the steady ticks
	refitUs    float64
	evictions  int64
	recOpenMs  float64
	recReplay  float64
	recCatchup float64
	replayed   int
}

// safely runs fn, turning a panic into an error: a divergence panic from
// the store's suppress-and-verify step is a failed recovery, not a crash
// of the benchmark.
func safely(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// runEpisode streams one episode on a fresh machine, then recovers it:
// stream-durable abandons its store without Close and reopens it;
// stream-dense resumes from the in-memory checkpoint it took five ticks
// before the end. tr is nil for an untraced episode.
func (w streamWorkload) runEpisode(seed uint64, storeRoot string, tr *tracer, ck *checks) (*episode, error) {
	ep := &episode{}
	rg, err := w.build(seed, tr)
	if err != nil {
		return nil, err
	}
	cfg := w.config()
	var fsys durable.FS = durable.OSFS{}
	if tr != nil {
		fsys = &fsWrap{inner: durable.OSFS{}, tr: tr}
	}

	// The stream: a store whose forwarded records are hashed, or a hasher.
	var (
		e      *stream.Engine
		dir    string
		out    = stream.NewHasher() // stream-durable: what the store forwarded to Store.Next
		tail   = stream.NewHasher() // stream-dense: the records after the checkpoint
		cpData []byte
	)
	if w.durable {
		if dir, err = os.MkdirTemp(storeRoot, "store-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		st, rec, err := stream.OpenStore(fsys, dir, nil)
		if err != nil {
			return nil, err
		}
		if rec.Mode != "fresh" {
			return nil, fmt.Errorf("new store opened in mode %q", rec.Mode)
		}
		st.Next = out
		if e, err = stream.Resume(rg.src, cfg, st, rec); err != nil {
			return nil, err
		}
	} else {
		e = stream.New(rg.src, cfg)
		e.Sink = out
	}
	sinkOf := func(s stream.Sink) stream.Sink {
		if tr == nil {
			return s
		}
		return &sinkWrap{inner: s, tr: tr}
	}
	e.Sink = sinkOf(e.Sink)

	steady := steadyFrom(rg.src.Meter.Interval())
	ep.steadyFrom = steady
	errFrom, errTo := errWindow(rg.src.Meter.Interval())
	var acct []float64 // accounted energy at each whole second of the error window
	var r0 [3]int
	for i := 1; i <= episodeTicks; i++ {
		var d time.Duration
		var tt tickTrace
		if err := safely(func() {
			if tr == nil {
				s := time.Now()
				e.RunTicks(1)
				d = time.Since(s)
				return
			}
			tr.cur = tickAcc{}
			tt.AllocBytes, tt.AllocObjects = tr.allocs.read()
			tt.T0 = tr.now()
			tr.phase = phaseAdvance
			rg.m.Eng.RunUntil(sim.Time(e.Tick()+1) * tickLen)
			tt.T1 = tr.now()
			tr.phase = phaseConsume
			e.RunTicks(1)
			tt.T2 = tr.now()
			tr.phase = phaseOther
			b, o := tr.allocs.read()
			tt.AllocBytes, tt.AllocObjects = b-tt.AllocBytes, o-tt.AllocObjects
			d = time.Duration(tt.T2 - tt.T0)
		}); err != nil {
			ep.failedTick = true
			ck.add("tick", false, "tick %d: %v", i, err)
			return ep, nil
		}
		ep.ticksRun = i
		ep.tickMs = append(ep.tickMs, float64(d)/1e6)
		ep.runS += d.Seconds()
		if tr != nil {
			tt.Tick = i
			tt.Acc = tr.cur
			tt.Records = e.Records()
			ep.ticks = append(ep.ticks, tt)
		}
		if i >= errFrom && i <= errTo && (i-errFrom)%ticksPerSecond == 0 {
			acct = append(acct, rg.m.Fac.TotalAccountedEnergyJ())
		}
		switch i {
		case steady:
			r0 = [3]int{rg.recal.Refits(), rg.recal.Rejected(), rg.recal.Fallbacks()}
		case episodeTicks - catchupTicks:
			if !w.durable {
				cpData = stream.EncodeCheckpoint(e.Checkpoint())
				e.Sink = sinkOf(stream.Tee{out, tail})
			}
		}
	}
	if tr != nil {
		ep.refits = [3]int{rg.recal.Refits() - r0[0], rg.recal.Rejected() - r0[1], rg.recal.Fallbacks() - r0[2]}
		ep.evictions = e.DriftEvictions()
	}
	ep.hash, ep.records = out.Sum(), out.Count()

	// Output checks on the finished stream.
	want := rg.m.Fac.TotalAccountedEnergyJ()
	diff := math.Abs(e.CumAttributedJ() - want)
	ck.add("ledger", diff <= 1e-6*(1+math.Abs(want)), "streamed %.9g J vs accounted %.9g J", e.CumAttributedJ(), want)
	if ep.errPct, ep.windowErrPct, err = attributionError(rg.m, sim.Time(errFrom)*tickLen, acct); err != nil {
		return nil, err
	}
	if tr != nil {
		ep.refitUs = timeRefits(rg)
	}

	// Recovery on a freshly built machine; calibration is warm.
	rg2, err := w.build(seed, tr)
	if err != nil {
		return nil, err
	}
	ep.recoveryAttempted = true
	if w.durable {
		err = w.recoverStore(ep, rg2, cfg, fsys, dir, out, ck)
	} else {
		err = recoverCheckpoint(ep, rg2, cfg, cpData, tail, ck)
	}
	if err != nil {
		ep.recoveryFailed = true
		ck.add("recovery", false, "%v", err)
	}
	return ep, nil
}

// recoverStore reopens the abandoned store, resumes the engine from its
// checkpoint and drives it to the durable frontier, where the store's
// suppress-and-verify step compares the regenerated records with the WAL.
// It then reads the WAL back and compares it with what the store
// forwarded.
func (w streamWorkload) recoverStore(ep *episode, rg *rig, cfg stream.Config, fsys durable.FS, dir string, forwarded *stream.Hasher, ck *checks) error {
	var e *stream.Engine
	var st *stream.Store
	var rec *stream.Recovered
	t0 := time.Now()
	var err error
	if st, rec, err = stream.OpenStore(fsys, dir, nil); err != nil {
		return err
	}
	t1 := time.Now()
	if e, err = stream.Resume(rg.src, cfg, st, rec); err != nil {
		return err
	}
	t2 := time.Now()
	if err := safely(func() {
		for e.Records() < rec.LastSeq {
			e.RunTicks(1)
		}
	}); err != nil {
		return err
	}
	t3 := time.Now()
	ep.recoveryS = t3.Sub(t0).Seconds()
	ep.recOpenMs = float64(t1.Sub(t0)) / 1e6
	ep.recReplay = float64(t2.Sub(t1)) / 1e6
	ep.recCatchup = float64(t3.Sub(t2)) / 1e6
	if rec.Checkpoint != nil {
		ep.replayed = rec.Checkpoint.Tick
	}

	lastCP := (episodeTicks / checkpointEvery) * checkpointEvery
	ck.add("recovery-mode", rec.Mode == "checkpoint" && ep.replayed == lastCP,
		"mode %s from tick %d (want checkpoint from tick %d)", rec.Mode, ep.replayed, lastCP)
	ck.add("recovery-frontier", rec.LastSeq == forwarded.Count() && e.Records() == rec.LastSeq && e.Tick() == episodeTicks,
		"frontier %d records at tick %d; WAL holds %d, store forwarded %d", e.Records(), e.Tick(), rec.LastSeq, forwarded.Count())
	if err := st.Close(); err != nil {
		return err
	}

	h := sha256.New()
	var n int64
	if err := stream.ReadStream(durable.OSFS{}, dir, func(seq int64, line []byte) error {
		n = seq
		h.Write(line)
		return nil
	}); err != nil {
		return err
	}
	got := hex.EncodeToString(h.Sum(nil))
	ck.add("wal-readback", got == forwarded.Sum() && n == forwarded.Count(),
		"WAL %d records sha256 %s; forwarded %d records sha256 %s", n, got, forwarded.Count(), forwarded.Sum())
	return nil
}

// recoverCheckpoint resumes stream-dense from its encoded in-memory
// checkpoint through the quiet-replay path and streams the remaining
// ticks, which must reproduce the original run's records.
func recoverCheckpoint(ep *episode, rg *rig, cfg stream.Config, cpData []byte, tail *stream.Hasher, ck *checks) error {
	t0 := time.Now()
	cp, err := stream.DecodeCheckpoint(cpData)
	if err != nil {
		return err
	}
	t1 := time.Now()
	e, err := stream.ReplayTo(rg.src, cfg, cp)
	if err != nil {
		return err
	}
	t2 := time.Now()
	again := stream.NewHasher()
	e.Sink = again
	if err := safely(func() { e.RunTicks(catchupTicks) }); err != nil {
		return err
	}
	t3 := time.Now()
	ep.recoveryS = t3.Sub(t0).Seconds()
	ep.recOpenMs = float64(t1.Sub(t0)) / 1e6
	ep.recReplay = float64(t2.Sub(t1)) / 1e6
	ep.recCatchup = float64(t3.Sub(t2)) / 1e6
	ep.replayed = cp.Tick
	ck.add("resume-tail", again.Sum() == tail.Sum() && e.Tick() == episodeTicks,
		"resumed tail %d records sha256 %s; original %d records sha256 %s", again.Count(), again.Sum(), tail.Count(), tail.Sum())
	return nil
}

// timeRefits times calls into the run's own recalibrator, after the run's
// outputs are checked, and returns the mean microseconds per call.
func timeRefits(rg *rig) float64 {
	base := rg.m.Fac.Coeff
	s := time.Now()
	for i := 0; i < refitCalls; i++ {
		if _, err := rg.recal.Refit(base); err != nil {
			return math.NaN()
		}
	}
	return float64(time.Since(s)) / 1e3 / refitCalls
}
