package experiments

import (
	"fmt"

	"powercontainers/internal/audit"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/export"
	"powercontainers/internal/runner"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// StreamEquivCell compares one fig8-style validation cell computed twice
// over the identical deterministic trace: once by the batch harness
// (RunOn: one RunUntil to the horizon) and once by the streaming engine
// (tick-by-tick consumption with per-container records).
type StreamEquivCell struct {
	Workload string
	Load     LoadLevel
	Approach core.Approach
	// BatchError is the batch harness's Figure 8 validation error.
	BatchError float64
	// StreamError is the same metric derived from the streaming engine's
	// record stream (cumulative attributed energy at the window's tick
	// boundaries) and the stream-arm machine's Wattsup window mean.
	StreamError float64
	// BatchHash and StreamHash are the canonical per-request accounting
	// hashes (audit.HashAccounting) of each arm's completed requests;
	// equality means the two arms attributed identically.
	BatchHash  string
	StreamHash string
	// Records counts the streaming arm's emitted records.
	Records int64
}

// Identical reports whether the arms' request accounting hashes match.
func (c StreamEquivCell) Identical() bool { return c.BatchHash == c.StreamHash }

// StreamEquivResult reports the streaming-vs-batch equivalence grid.
type StreamEquivResult struct {
	Cells []StreamEquivCell
}

// streamEquivRun executes one cell's two arms on identically seeded
// SandyBridge machines.
func streamEquivRun(ex Exec, ap core.Approach, load LoadLevel, seed uint64) (StreamEquivCell, error) {
	wl := workload.Stress{}

	// Batch arm: the established harness path.
	batch, err := ex.Run(cpu.SandyBridge, ap, RunSpec{Workload: wl, Load: load}, seed)
	if err != nil {
		return StreamEquivCell{}, err
	}
	batchHash, err := audit.HashAccounting(export.Collect(batch.Gen.Completed()))
	if err != nil {
		return StreamEquivCell{}, err
	}

	// Streaming arm: identical machine and load schedule, but the
	// engine is driven tick-by-tick through the streaming consumer.
	m, err := ex.NewMachine(cpu.SandyBridge, ap, seed)
	if err != nil {
		return StreamEquivCell{}, err
	}
	rig := m.Deploy(wl)
	t0 := defaultWarmup
	t1 := t0 + defaultWindow
	rig.Drive(load, t1)
	e := stream.New(m.Sources(), stream.Config{})
	h := stream.NewHasher()
	e.Sink = h
	if m.Audit != nil {
		e.Observer = m.Audit
	}
	// The warmup/window bounds are tick multiples, so the cumulative
	// attributed ledger at those ticks is the window's energy.
	e.RunUntil(t0)
	cum0 := e.CumAttributedJ()
	e.RunUntil(t1)
	cum1 := e.CumAttributedJ()
	e.RunUntil(t1 + 3*sim.Second)
	if err := m.FinalizeAudit(); err != nil {
		return StreamEquivCell{}, err
	}
	measured, err := WattsupActiveMean(m, m.Eng.Now(), t0, t1)
	if err != nil {
		return StreamEquivCell{}, err
	}
	streamHash, err := audit.HashAccounting(export.Collect(rig.Gen.Completed()))
	if err != nil {
		return StreamEquivCell{}, err
	}
	windowSec := float64(t1-t0) / float64(sim.Second)
	streamErr := ValidationError((cum1-cum0)/windowSec, measured)
	return StreamEquivCell{
		Workload: wl.Name(), Load: load, Approach: ap,
		BatchError: ValidationError(batch.AccountedW, batch.MeasuredActiveW), StreamError: streamErr,
		BatchHash: batchHash, StreamHash: streamHash,
		Records: h.Count(),
	}, nil
}

// streamEquivPlan decomposes the grid into one job per (load, approach)
// cell.
func streamEquivPlan(ex Exec, seed uint64) *runner.Plan {
	plan := &runner.Plan{}
	for _, load := range []LoadLevel{PeakLoad, HalfLoad} {
		for _, ap := range Approaches() {
			load, ap := load, ap
			key := fmt.Sprintf("streamequiv/%s/%s", load, ap)
			plan.Add(key, func() (any, error) {
				cell, err := streamEquivRun(ex, ap, load, seed)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", key, err)
				}
				return cell, nil
			})
		}
	}
	return plan
}

// StreamEquiv runs the streaming-vs-batch grid: SandyBridge, the stress
// workload, both load levels, all three attribution approaches.
func StreamEquiv(ex Exec, seed uint64) (*StreamEquivResult, error) {
	cells, err := runner.Collect[StreamEquivCell](streamEquivPlan(ex, seed), ex.Jobs)
	if err != nil {
		return nil, err
	}
	return &StreamEquivResult{Cells: cells}, nil
}

// AllIdentical reports whether every cell's two arms attributed
// identically.
func (r *StreamEquivResult) AllIdentical() bool {
	for _, c := range r.Cells {
		if !c.Identical() {
			return false
		}
	}
	return len(r.Cells) > 0
}

// errTable renders the cells in the Figure 8 row format from one arm's
// errors. The batch and stream tables must be byte-identical — the
// rendered form of the equivalence claim, pinned by the experiment test.
func (r *StreamEquivResult) errTable(title string, pick func(StreamEquivCell) float64) string {
	t := &Table{
		Title:  title,
		Header: []string{"machine", "workload", "load", "core-only", "chip-share", "recalibrated"},
	}
	type key struct {
		w string
		l LoadLevel
	}
	grid := map[key]map[core.Approach]float64{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Workload, c.Load}
		if grid[k] == nil {
			grid[k] = map[core.Approach]float64{}
			order = append(order, k)
		}
		grid[k][c.Approach] = pick(c)
	}
	for _, k := range order {
		t.AddRow(cpu.SandyBridge.Name, k.w, k.l.String(),
			pct(grid[k][core.ApproachCoreOnly]),
			pct(grid[k][core.ApproachChipShare]),
			pct(grid[k][core.ApproachRecalibrated]))
	}
	return t.String()
}

// BatchTable renders the batch arm's validation errors in fig8 format.
func (r *StreamEquivResult) BatchTable() string {
	return r.errTable("validation error (batch harness)", func(c StreamEquivCell) float64 { return c.BatchError })
}

// StreamTable renders the streaming arm's validation errors in fig8
// format.
func (r *StreamEquivResult) StreamTable() string {
	return r.errTable("validation error (streaming engine)", func(c StreamEquivCell) float64 { return c.StreamError })
}

// Render prints both arms' fig8-format tables and the per-cell identity
// verdicts.
func (r *StreamEquivResult) Render() string {
	t := &Table{
		Title:  "streaming vs batch attribution equivalence",
		Header: []string{"load", "approach", "batch err", "stream err", "records", "identical"},
		Caption: "identical = SHA-256 of canonical per-request accounting matches between the\n" +
			"batch harness and the streaming engine on the same deterministic trace",
	}
	for _, c := range r.Cells {
		ident := "YES"
		if !c.Identical() {
			ident = "NO"
		}
		t.AddRow(c.Load.String(), c.Approach.String(),
			pct(c.BatchError), pct(c.StreamError),
			fmt.Sprintf("%d", c.Records), ident)
	}
	return r.BatchTable() + "\n" + r.StreamTable() + "\n" + t.String()
}
