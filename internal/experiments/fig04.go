package experiments

import (
	"fmt"
	"sort"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Fig4Result reproduces Figure 4: a captured WeBWorK request execution
// spanning Apache/httpd processing, a MySQL thread reached over a
// persistent socket, and shell/latex/dvipng processes created by fork —
// with attributed power and energy at each request stage and the identified
// data/control-flow events between components.
type Fig4Result struct {
	Request *server.Request
	Stages  []core.StageStat
	Events  []core.TraceEvent
	// TotalEnergyJ and Duration summarize the request.
	TotalEnergyJ float64
	Duration     sim.Time
}

// Fig4 runs WeBWorK on SandyBridge at low load with tracing enabled and
// captures a representative (near-median-energy) request.
func Fig4(ex Exec, seed uint64) (*Fig4Result, error) {
	m, err := ex.NewMachine(cpu.SandyBridge, core.ApproachChipShare, seed)
	if err != nil {
		return nil, err
	}
	rig := m.Deploy(workload.WeBWorK{})
	rig.Gen.TraceRequests = true
	rig.DriveRate(4, 6*sim.Second)
	m.Eng.RunUntil(8 * sim.Second)

	done := rig.Gen.Completed()
	if len(done) == 0 {
		return nil, fmt.Errorf("fig4: no completed WeBWorK requests")
	}
	// Pick the median-energy request as the representative capture.
	sort.Slice(done, func(i, j int) bool {
		return done[i].Cont.EnergyJ() < done[j].Cont.EnergyJ()
	})
	req := done[len(done)/2]
	if err := m.FinalizeAudit(); err != nil {
		return nil, err
	}
	return &Fig4Result{
		Request:      req,
		Stages:       req.Cont.Stages(),
		Events:       req.Cont.Trace,
		TotalEnergyJ: req.Cont.EnergyJ(),
		Duration:     req.ResponseTime(),
	}, nil
}

// Render prints the captured request in the style of Figure 4.
func (r *Fig4Result) Render() string {
	t := &Table{
		Title:  "Figure 4: a captured WeBWorK request execution",
		Header: []string{"stage", "mean power", "energy", "busy time"},
		Caption: fmt.Sprintf("request %s: total %.2f J over %s (wall)",
			r.Request.Type, r.TotalEnergyJ, sim.FormatTime(r.Duration)),
	}
	for _, s := range r.Stages {
		t.AddRow(s.Task, w1(s.MeanPowerW()), j2(s.EnergyJ), sim.FormatTime(s.CPUTime))
	}
	out := t.String()

	t2 := &Table{
		Title:  "identified data and control flows",
		Header: []string{"time", "event", "component", "detail"},
	}
	for _, e := range r.Events {
		t2.AddRow(sim.FormatTime(e.T-r.Request.Arrive), string(e.Kind), e.Task, e.Detail)
	}
	return out + "\n" + t2.String()
}
