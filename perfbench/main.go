// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads in-process through the Go API, prints a JSON line of
// details and, last, the JSON result line:
//
//	perfbench --workload stream-durable|stream-dense|cluster3
//	          [--seed N] [--seconds S] [--trace 0|1]
//
// stream-durable and stream-dense run the streaming attribution engine
// (pcstream's paths) and load opposite layers; cluster3 runs the
// three-tier cluster experiment. With --trace 0 the result carries the
// end-to-end metrics, with --trace 1 the per-layer metrics of a traced
// run. README.md defines every metric and why it was chosen.
//
// Each measurement runs in a fresh child process of this binary:
// calibration is cached per process, so set-up must start cold, and a
// fresh process keeps one run's memory from inflating another's peak.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// setupRuns is how many cold set-ups a run measures; setup_s is their
// median.
const setupRuns = 5

// deadline bounds a whole invocation, children included.
const deadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command line. Child processes take the same flags
// plus -child.
type options struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	trace    int

	child  string // "setup" or "run" in a child process
	traced bool   // child: install the seam wrappers
	jobs   int    // child: cluster3's worker bound
}

func parse(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.root, "root", ".", "repository root; scratch files go under ROOT/.bench_build/perfbench")
	fs.StringVar(&o.workload, "workload", "", "workload: stream-durable, stream-dense or cluster3")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long a run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	fs.StringVar(&o.child, "child", "", "internal: child process role")
	fs.BoolVar(&o.traced, "traced", false, "internal: traced child")
	fs.IntVar(&o.jobs, "jobs", 0, "internal: cluster3 worker bound")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want stream-durable, stream-dense or cluster3)", o.workload)
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return o, fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	return o, nil
}

// workloads maps names to stream workloads; cluster3 maps to nil.
var workloads = map[string]*streamWorkload{
	"stream-durable": &streamDurable,
	"stream-dense":   &streamDense,
	"cluster3":       nil,
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	scratch := filepath.Join(o.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(storeRoot(scratch), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rep any
	switch o.child {
	case "setup":
		rep, err = setupChild(o, scratch)
	case "run":
		rep, err = runChild(o, scratch)
	case "":
		err = orchestrate(o, scratch, stdout, stderr)
	default:
		err = fmt.Errorf("unknown child role %q", o.child)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep != nil {
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

// spawn runs this binary as a child with the given role and decodes the
// JSON report it prints last.
func spawn(ctx context.Context, o options, role string, traced bool, jobs int, seconds float64, into any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-child", role, "-root", o.root, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-jobs", strconv.Itoa(jobs)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "PC_AUDIT=0") // auditing stays off whatever the caller's environment says
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], into); err != nil {
		return fmt.Errorf("%s child report: %w", role, err)
	}
	return nil
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// details is printed on the line before the result: the host
// fingerprint, every output check, sample counts, the paper cross-check
// and why any per-layer metric is unavailable.
type details struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    int            `json:"trace"`
	Host     hostInfo       `json:"host"`
	Checks   []check        `json:"checks"`
	Samples  map[string]int `json:"samples"`
	// TickP99 is the median over episodes of each episode's p99 tick: a
	// tail the host's CPU steal sets more than the program, so it carries
	// no bound.
	TickP99 float64 `json:"tick_ms_p99,omitempty"`
	// AttribErrWindowPct is Fig. 8's whole-window form of attrib_err_pct.
	AttribErrWindowPct float64            `json:"attrib_err_window_pct,omitempty"`
	CalibByMachine     map[string]float64 `json:"calib_s_by_machine,omitempty"`
	Paper              *paperCheck        `json:"paper_3_5,omitempty"`
	Unavailable        []unavailable      `json:"unavailable,omitempty"`
	SpansFile          string             `json:"spans_file,omitempty"`
}

// unavailable says why metrics printed as 0 could not be measured.
type unavailable struct {
	Reason  string   `json:"reason"`
	Metrics []string `json:"metrics"`
}

// paperCheck puts the traced run's per-operation costs next to the
// paper's §3.5 figures.
type paperCheck struct {
	HookNs       float64 `json:"core.hook_ns"`
	PaperHookNs  float64 `json:"paper_maintenance_op_ns"`
	RefitUs      float64 `json:"align.refit_us"`
	PaperRefitUs float64 `json:"paper_recalibration_us"`
	Note         string  `json:"note"`
}

// measured is what an invocation's children reported. traced and serial
// stay nil unless the invocation traced; serial is cluster3's jobs=1 run.
type measured struct {
	setups                []setupReport
	plain, traced, serial *runReport
}

func orchestrate(o options, scratch string, stdout, stderr io.Writer) error {
	refMs := referenceLoop()
	m, err := measure(o)
	if err != nil {
		return err
	}
	res, d := compose(o, m)
	d.Host = fingerprint(storeRoot(scratch), refMs)
	for _, c := range d.Checks {
		if !c.OK {
			fmt.Fprintf(stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	if err := json.NewEncoder(stdout).Encode(d); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// measure runs the set-up children, then the run children.
func measure(o options) (measured, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	nproc := runtime.NumCPU()
	m := measured{setups: make([]setupReport, setupRuns), plain: &runReport{}}
	for i := range m.setups {
		if err := spawn(ctx, o, "setup", false, nproc, o.seconds, &m.setups[i]); err != nil {
			return m, err
		}
	}
	// A traced run shares --seconds between its children: per-layer
	// metrics carry no bound, and the untraced child is only their
	// baseline.
	share := o.seconds
	if o.trace == 1 {
		share /= 2
		if o.workload == "cluster3" {
			share = o.seconds / 3
		}
	}
	if err := spawn(ctx, o, "run", false, nproc, share, m.plain); err != nil {
		return m, err
	}
	if o.trace == 0 {
		return m, nil
	}
	m.traced = &runReport{}
	if err := spawn(ctx, o, "run", true, nproc, share, m.traced); err != nil {
		return m, err
	}
	if o.workload == "cluster3" {
		m.serial = &runReport{}
		if err := spawn(ctx, o, "run", true, 1, share, m.serial); err != nil {
			return m, err
		}
	}
	return m, nil
}

// compose turns the children's reports into the result and its details.
func compose(o options, m measured) (result, details) {
	d := details{Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Samples: map[string]int{"setups": len(m.setups)}}
	res := result{Metrics: map[string]metric{}}
	plain := m.plain
	ck := &checks{}
	for _, r := range []*runReport{m.plain, m.traced, m.serial} {
		if r == nil {
			continue
		}
		for _, c := range r.Checks {
			ck.merge(c)
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if r != plain {
			ck.add("trace-transparent", r.Hash == plain.Hash, "traced run (jobs=%d) sha256 %s, untraced %s", r.Jobs, r.Hash, plain.Hash)
		}
	}
	if ref, ok := referenceHashes[o.workload]; ok && o.seed == referenceSeed {
		ck.add("reference-hash", plain.Hash == ref, "seed %d output sha256 %s, reference %s", o.seed, plain.Hash, ref)
	}

	var setupS []float64
	for _, s := range m.setups {
		setupS = append(setupS, s.SetupS)
	}
	var vals map[string]float64
	if o.trace == 0 {
		vals = map[string]float64{
			"setup_s":        median(setupS),
			"run_s":          median(plain.RunS),
			"tick_ms_p50":    plain.TickP50,
			"tick_ms_p95":    plain.TickP95,
			"recovery_s":     median(plain.RecoveryS),
			"peak_mem_mb":    float64(plain.PeakRSS) / 1e6,
			"attrib_err_pct": plain.ErrPct,
		}
		d.Samples["episodes_or_calls"] = len(plain.RunS)
		d.Samples["recoveries"] = len(plain.RecoveryS)
		if o.workload == "cluster3" {
			d.Unavailable = []unavailable{{
				Reason:  fmt.Sprintf("a call is cluster3's unit of work and %d calls cannot carry a p95, so the slowest call is reported", len(plain.RunS)),
				Metrics: []string{"tick_ms_p95"},
			}}
		} else {
			d.Samples["steady_ticks_per_episode"] = plain.TickSamples
			d.Samples["ticks_beyond_p99_min"] = plain.TickBeyond
			d.TickP99 = plain.TickP99
			d.AttribErrWindowPct = plain.WindowErrPct
		}
	} else {
		vals = layerValues(&d, o, m)
	}
	for _, def := range printed(o.trace) {
		v := vals[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	d.Checks = ck.list
	res.Correct = ck.ok() && res.Failed == 0 && res.Attempted > 0
	return res, d
}

// printed returns the metrics a run prints.
func printed(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// layerValues computes the per-layer metrics from the set-up children,
// the traced child, the untraced child it is compared with and, on
// cluster3, the serial child. A metric a workload cannot measure stays
// absent (printed as 0) and its reason goes to the details.
func layerValues(d *details, o options, m measured) map[string]float64 {
	traced := m.traced
	vals := map[string]float64{}
	for k, v := range traced.Layers {
		vals[k] = v
	}
	medianOf := func(f func(setupReport) float64) float64 {
		var xs []float64
		for _, s := range m.setups {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	vals["calib.s"] = medianOf(func(s setupReport) float64 { return s.CalibS })
	d.CalibByMachine = map[string]float64{}
	for name := range m.setups[0].CalibBy {
		d.CalibByMachine[name] = medianOf(func(s setupReport) float64 { return s.CalibBy[name] })
	}
	vals["runtime.cpu_s"] = traced.CPUS
	vals["runtime.gc_cpu_frac"] = traced.GCFrac
	vals["runner.busy_frac"] = traced.CPUS / (traced.WallS * float64(traced.Jobs))
	vals["trace.overhead_pct"] = 100 * (median(traced.RunS) - median(m.plain.RunS)) / median(m.plain.RunS)
	d.Samples["traced_episodes_or_calls"] = len(traced.RunS)
	d.Samples["untraced_episodes_or_calls"] = len(m.plain.RunS)
	d.SpansFile = traced.SpansFile

	if o.workload == "cluster3" {
		vals["runner.speedup_x"] = median(m.serial.RunS) / median(traced.RunS)
		vals["cluster.requests"] = float64(traced.Requests)
		var missing []string
		for _, def := range perLayer {
			if _, ok := vals[def.name]; !ok {
				missing = append(missing, def.name)
			}
		}
		d.Unavailable = []unavailable{{Reason: "cluster3 assembles its machines inside the experiment, out of reach of the seam wrappers", Metrics: missing}}
		return vals
	}
	vals["experiments.assemble_ms"] = medianOf(func(s setupReport) float64 { return s.AssembleMs })
	d.Samples["traced_steady_ticks_per_episode"] = traced.TickSamples
	d.Unavailable = []unavailable{
		{Reason: "one driver streams ticks in order: there is no parallel run to compare", Metrics: []string{"runner.speedup_x"}},
		{Reason: "no cluster", Metrics: []string{"cluster.requests"}},
	}
	if workloads[o.workload].durable {
		vals["durable.open_ms"] = medianOf(func(s setupReport) float64 { return s.OpenMs })
	} else {
		d.Unavailable = append(d.Unavailable, unavailable{
			Reason:  "stream-dense keeps no store: the durable layer does nothing",
			Metrics: []string{"durable.open_ms", "durable.wal_write_us", "durable.wal_bytes", "durable.wal_sync_us", "durable.ckpt_ms", "durable.ckpt_bytes"},
		})
	}
	d.Paper = &paperCheck{
		HookNs: vals["core.hook_ns"], PaperHookNs: 950,
		RefitUs: vals["align.refit_us"], PaperRefitUs: 16,
		Note: "the paper times one maintenance operation and one least-squares refit on its own hardware; here a hook also pays the wrapper's two clock reads, and a refit solves the recalibrator's incremental Gram",
	}
	return vals
}

// checks accumulates named output checks. Repeats of a name (one per
// episode or call) fold into one entry that counts them and keeps the
// first failure's detail, or else the last detail.
type checks struct {
	list []check
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Passed int    `json:"passed"`
	Of     int    `json:"of"`
	Detail string `json:"detail,omitempty"`
}

func (c *checks) add(name string, ok bool, format string, args ...any) {
	passed := 0
	if ok {
		passed = 1
	}
	c.merge(check{Name: name, OK: ok, Passed: passed, Of: 1, Detail: fmt.Sprintf(format, args...)})
}

// merge folds in a check, which may itself count several repeats.
func (c *checks) merge(in check) {
	for i := range c.list {
		x := &c.list[i]
		if x.Name != in.Name {
			continue
		}
		x.Of += in.Of
		x.Passed += in.Passed
		if x.OK {
			x.Detail = in.Detail
		}
		x.OK = x.OK && in.OK
		return
	}
	c.list = append(c.list, in)
}

func (c *checks) ok() bool {
	for _, x := range c.list {
		if !x.OK {
			return false
		}
	}
	return true
}
