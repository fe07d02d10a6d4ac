package experiments

import (
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/workload"
)

// Fig9Cell is one stacked bar of Figure 9.
type Fig9Cell struct {
	Load LoadLevel
	// MeasuredW is the measured system active power; SumOfRequestsW and
	// BackgroundW are the modeled components.
	MeasuredW       float64
	SumOfRequestsW  float64
	BackgroundW     float64
	BackgroundShare float64
}

// Fig9Result reproduces Figure 9: the Google App Engine system's background
// processing — activity with no traceable connection to any request, which
// the facility accounts in a special container — amounts to roughly a third
// of total system active power for GAE-Vosao on SandyBridge.
type Fig9Result struct {
	Cells []Fig9Cell
}

// Fig9 measures GAE-Vosao at peak and half load.
func Fig9(ex Exec, seed uint64) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, load := range []LoadLevel{PeakLoad, HalfLoad} {
		r, err := ex.Run(cpu.SandyBridge, core.ApproachRecalibrated,
			RunSpec{Workload: workload.GAE{}, Load: load}, seed)
		if err != nil {
			return nil, err
		}
		cell := Fig9Cell{
			Load:           load,
			MeasuredW:      r.MeasuredActiveW,
			SumOfRequestsW: r.AccountedW - r.BackgroundW,
			BackgroundW:    r.BackgroundW,
		}
		if r.AccountedW > 0 {
			cell.BackgroundShare = r.BackgroundW / r.AccountedW
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Render prints the stacked bars.
func (r *Fig9Result) Render() string {
	t := &Table{
		Title:  "Figure 9: GAE background processing (GAE-Vosao on SandyBridge)",
		Header: []string{"load", "measured", "sum of requests", "background", "background share"},
		Caption: "Almost one third of total system active power is attributable to GAE\n" +
			"background processing, captured by the special background container.",
	}
	for _, c := range r.Cells {
		t.AddRow(c.Load.String(), w1(c.MeasuredW), w1(c.SumOfRequestsW), w1(c.BackgroundW), pct(c.BackgroundShare))
	}
	return t.String()
}
