package experiments

import (
	"fmt"

	"powercontainers/internal/cpu"
	"powercontainers/internal/model"
)

// CoeffResult reproduces the §4.1 calibrated-coefficient listing: Cidle and
// C·Mmax for each model term, where Mmax is the maximum observed value of
// the metric for the whole machine including all cores.
type CoeffResult struct {
	Machine string
	Coeff   model.Coefficients
	// CMmax[i] pairs MetricNames[i] with its maximum active power impact.
	CMmax []float64
	// FitErr is the calibration fit error.
	FitErr float64
}

// Coefficients calibrates a machine and reports the table (the paper lists
// SandyBridge).
func Coefficients(spec cpu.MachineSpec) (*CoeffResult, error) {
	cal, err := CalibrationFor(spec)
	if err != nil {
		return nil, err
	}
	cv := cal.Eq2.Vector()
	mv := cal.Mmax.Vector()
	res := &CoeffResult{
		Machine: spec.Name,
		Coeff:   cal.Eq2,
		FitErr:  cal.FitErrEq2,
	}
	for i := range cv {
		res.CMmax = append(res.CMmax, cv[i]*mv[i])
	}
	return res, nil
}

// Render prints the coefficient table in the paper's format.
func (r *CoeffResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("§4.1 calibrated offline model for %s", r.Machine),
		Header: []string{"term", "C·Mmax (max active power impact)"},
		Caption: fmt.Sprintf("calibration fit error %s; paper's SandyBridge values: core 33.1 W, ins 12.4 W,\n"+
			"cache 13.9 W, mem 8.2 W, chipshare 5.6 W, disk 1.7 W, net 5.8 W; Cidle 26.1 W",
			pct(r.FitErr)),
	}
	t.AddRow("Cidle", w1(r.Coeff.IdleW))
	for i, name := range model.MetricNames {
		t.AddRow("C"+name+" · Mmax", w1(r.CMmax[i]))
	}
	return t.String()
}
