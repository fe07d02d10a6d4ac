package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/experiments"
	"powercontainers/internal/stream"
)

// setupReport is what one cold set-up child measured.
type setupReport struct {
	SetupS     float64            `json:"setup_s"`
	CalibS     float64            `json:"calib_s"`
	CalibBy    map[string]float64 `json:"calib_s_by_machine"`
	AssembleMs float64            `json:"assemble_ms"`
	OpenMs     float64            `json:"open_ms"`
}

// runReport is what one run child measured.
type runReport struct {
	Jobs         int                `json:"jobs"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	Checks       []check            `json:"checks"`
	Hash         string             `json:"hash"`
	RunS         []float64          `json:"run_s"`
	TickP50      float64            `json:"tick_ms_p50"`
	TickP95      float64            `json:"tick_ms_p95"`
	TickP99      float64            `json:"tick_ms_p99"`
	EpisodeP50   []float64          `json:"episode_tick_ms_p50,omitempty"`
	EpisodeP95   []float64          `json:"episode_tick_ms_p95,omitempty"`
	EpisodeP99   []float64          `json:"episode_tick_ms_p99,omitempty"`
	TickSamples  int                `json:"tick_samples"` // steady ticks per episode, fewest
	TickBeyond   int                `json:"tick_beyond"`  // ticks above an episode's p99, fewest
	RecoveryS    []float64          `json:"recovery_s"`
	ErrPct       float64            `json:"attrib_err_pct"`
	WindowErrPct float64            `json:"attrib_err_window_pct"`
	PeakRSS      int64              `json:"peak_rss"`
	CPUS         float64            `json:"cpu_s"`
	WallS        float64            `json:"wall_s"`
	GCFrac       float64            `json:"gc_cpu_frac"`
	Requests     int64              `json:"requests"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	SpansFile    string             `json:"spans_file,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setupChild measures one cold set-up: calibration of the workload's
// machines, machine assembly with deploy and load-generator arming, and
// opening an empty store. The process is fresh, so calibration is cold.
func setupChild(o options, scratch string) (*setupReport, error) {
	w := workloads[o.workload]
	specs := cluster3Machines
	if w != nil {
		specs = []cpu.MachineSpec{w.machine}
	}
	rep := &setupReport{CalibBy: map[string]float64{}}
	var dir string
	if w != nil && w.durable {
		var err error
		if dir, err = os.MkdirTemp(storeRoot(scratch), "setup-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	start := time.Now()
	for _, spec := range specs {
		s := time.Now()
		if _, err := experiments.CalibrationFor(spec); err != nil {
			return nil, err
		}
		d := time.Since(s).Seconds()
		rep.CalibBy[spec.Name] = d
		rep.CalibS += d
	}
	var st *stream.Store
	if w != nil {
		s := time.Now()
		if _, err := w.build(o.seed, nil); err != nil {
			return nil, err
		}
		rep.AssembleMs = ms(time.Since(s))
		if w.durable {
			s := time.Now()
			var err error
			if st, _, err = stream.OpenStore(durable.OSFS{}, dir, nil); err != nil {
				return nil, err
			}
			rep.OpenMs = ms(time.Since(s))
		}
	}
	rep.SetupS = time.Since(start).Seconds()
	if st != nil {
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func storeRoot(scratch string) string { return filepath.Join(scratch, "tmp") }

// runChild measures the workload's fixed work for --seconds. Calibration
// is warmed first and left out: set-up children measure it cold.
func runChild(o options, scratch string) (*runReport, error) {
	w := workloads[o.workload]
	specs := cluster3Machines
	if w != nil {
		specs = []cpu.MachineSpec{w.machine}
	}
	for _, spec := range specs {
		if _, err := experiments.CalibrationFor(spec); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	if !resetPeakRSS() {
		return nil, errors.New("cannot reset the peak resident-set counter through /proc/self/clear_refs")
	}
	if w == nil {
		return runCluster3(o)
	}
	return w.run(o, scratch)
}

// cpuMeter reads the process's CPU time and the Go runtime's GC share of
// it over a measured span.
type cpuMeter struct {
	start    time.Time
	cpu      time.Duration
	gc, all  float64
	rtSample [2]metrics.Sample
}

func startCPU() *cpuMeter {
	c := &cpuMeter{}
	c.rtSample[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	c.rtSample[1].Name = "/cpu/classes/total:cpu-seconds"
	metrics.Read(c.rtSample[:])
	c.gc, c.all = c.rtSample[0].Value.Float64(), c.rtSample[1].Value.Float64()
	c.cpu = cpuTime()
	c.start = time.Now()
	return c
}

// stop fills the report's wall time, CPU time and GC CPU fraction.
func (c *cpuMeter) stop(rep *runReport) {
	rep.WallS = time.Since(c.start).Seconds()
	rep.CPUS = (cpuTime() - c.cpu).Seconds()
	metrics.Read(c.rtSample[:])
	if all := c.rtSample[1].Value.Float64() - c.all; all > 0 {
		rep.GCFrac = (c.rtSample[0].Value.Float64() - c.gc) / all
	}
}

// run streams episodes until --seconds have passed (at least one).
func (w streamWorkload) run(o options, scratch string) (*runReport, error) {
	rep := &runReport{Jobs: 1}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	ck := &checks{}
	var eps []*episode
	meter := startCPU()
	for len(eps) == 0 || time.Since(meter.start).Seconds() < o.seconds {
		ep, err := w.runEpisode(o.seed, storeRoot(scratch), tr, ck)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		rep.Attempted += int64(ep.ticksRun)
		if ep.failedTick {
			rep.Attempted++
			rep.Failed++
			break
		}
		rep.RunS = append(rep.RunS, ep.runS)
		steady := ep.tickMs[ep.steadyFrom:]
		p95, err95 := tailAt(steady, 0.95)
		p99, err99 := tailAt(steady, 0.99)
		ck.add("tick-tail-samples", err95 == nil && err99 == nil, "p99 over %d steady ticks, %d beyond it", p99.Samples, p99.Beyond)
		rep.EpisodeP50 = append(rep.EpisodeP50, median(steady))
		rep.EpisodeP95 = append(rep.EpisodeP95, p95.Value)
		rep.EpisodeP99 = append(rep.EpisodeP99, p99.Value)
		if len(rep.EpisodeP99) == 1 || p99.Beyond < rep.TickBeyond {
			rep.TickSamples, rep.TickBeyond = p99.Samples, p99.Beyond
		}
		if ep.recoveryAttempted {
			rep.Attempted++
			if ep.recoveryFailed {
				rep.Failed++
			} else {
				rep.RecoveryS = append(rep.RecoveryS, ep.recoveryS)
			}
		}
	}
	meter.stop(rep)
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	rep.PeakRSS = peak

	first := eps[0]
	rep.Hash, rep.ErrPct, rep.WindowErrPct = first.hash, first.errPct, first.windowErrPct
	for i, ep := range eps[1:] {
		if ep.failedTick {
			continue
		}
		ck.add("deterministic", ep.hash == first.hash && ep.errPct == first.errPct,
			"episode %d sha256 %s err %g; episode 0 sha256 %s err %g", i+1, ep.hash, ep.errPct, first.hash, first.errPct)
	}
	rep.TickP50, rep.TickP95, rep.TickP99 = median(rep.EpisodeP50), median(rep.EpisodeP95), median(rep.EpisodeP99)
	if tr != nil {
		rep.Layers = streamLayers(eps)
		rep.SpansFile = filepath.Join(filepath.Dir(storeRoot(scratch)), fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := writeSpans(rep.SpansFile, eps); err != nil {
			return nil, err
		}
	}
	rep.Checks = ck.list
	return rep, nil
}

// runCluster3 calls the cluster3 experiment until --seconds have passed
// (at least once). The untraced child then makes one more call, as a
// restarted process would, for recovery_s, and measures attrib_err_pct.
func runCluster3(o options) (*runReport, error) {
	rep := &runReport{Jobs: o.jobs}
	ck := &checks{}
	allocs := newAllocCounter()
	var allocB, allocN uint64
	meter := startCPU()
	for len(rep.RunS) == 0 || time.Since(meter.start).Seconds() < o.seconds {
		b0, n0 := allocs.read()
		s := time.Now()
		h, req, err := cluster3Call(o.seed, o.jobs, o.traced)
		d := time.Since(s)
		b1, n1 := allocs.read()
		allocB, allocN = allocB+b1-b0, allocN+n1-n0
		rep.Attempted++
		if err != nil {
			rep.Failed++
			ck.add("cluster3-run", false, "%v", err)
			break
		}
		rep.RunS = append(rep.RunS, d.Seconds())
		if rep.Hash == "" {
			rep.Hash = h
		}
		ck.add("deterministic", h == rep.Hash, "call %d rendering sha256 %s; first %s", len(rep.RunS), h, rep.Hash)
		rep.Requests = req
	}
	meter.stop(rep)
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	rep.PeakRSS = peak
	var callMs []float64
	for _, s := range rep.RunS {
		callMs = append(callMs, s*1e3)
	}
	rep.TickSamples = len(callMs)
	if len(callMs) > 0 {
		rep.TickP50 = median(callMs)
		rep.TickP95 = sorted(callMs)[len(callMs)-1]
	}
	if o.traced && len(callMs) > 0 {
		calls := float64(len(callMs))
		rep.Layers = map[string]float64{
			"runtime.alloc_kb": float64(allocB) / 1e3 / calls,
			"runtime.mallocs":  float64(allocN) / calls,
		}
	}

	if !o.traced && rep.Failed == 0 {
		s := time.Now()
		h, _, err := cluster3Call(o.seed, o.jobs, false)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			ck.add("recovery", false, "%v", err)
		} else {
			rep.RecoveryS = append(rep.RecoveryS, time.Since(s).Seconds())
			ck.add("recovery", h == rep.Hash, "recomputed rendering sha256 %s; first %s", h, rep.Hash)
		}
		rep.Attempted++
		if rep.ErrPct, err = cluster3AttribErr(o.seed, o.jobs); err != nil {
			rep.Failed++
			ck.add("attrib-err", false, "%v", err)
		}
	}
	rep.Checks = ck.list
	return rep, nil
}
