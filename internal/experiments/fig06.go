package experiments

import (
	"fmt"
	"strings"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/stats"
	"powercontainers/internal/workload"
)

// Fig6Result reproduces Figures 6 and 7: the distributions of mean request
// power and of request energy usage for the Solr search engine and the
// GAE-Hybrid workload on the SandyBridge machine at half load. GAE-Hybrid
// is bimodal in power (Vosao requests vs power viruses); Solr's energy
// spread comes mostly from execution-time differences.
type Fig6Result struct {
	Workloads []Fig6Workload
}

// Fig6Workload is one workload's request distributions.
type Fig6Workload struct {
	Name string
	// PowerHist bins mean request power (W); EnergyHist bins request
	// energy (J).
	PowerHist  *stats.Histogram
	EnergyHist *stats.Histogram
	// PowerModes are the detected distribution masses (W), e.g. the
	// Vosao mass and the power-virus mass for GAE-Hybrid.
	PowerModes []float64
	// ByType summarizes mean power and energy per request type.
	ByType map[string]*Fig6TypeStats
}

// Fig6TypeStats summarizes one request type.
type Fig6TypeStats struct {
	Count       int
	MeanPowerW  stats.Summary
	MeanEnergyJ stats.Summary
}

// Fig6 collects request power/energy distributions.
func Fig6(ex Exec, seed uint64) (*Fig6Result, error) {
	res := &Fig6Result{}
	for _, wl := range []workload.Workload{workload.Solr{}, workload.GAE{VirusLoadFraction: 0.5}} {
		r, err := ex.Run(cpu.SandyBridge, core.ApproachRecalibrated,
			RunSpec{Workload: wl, Load: HalfLoad}, seed)
		if err != nil {
			return nil, err
		}
		w := Fig6Workload{
			Name:       wl.Name(),
			PowerHist:  stats.NewHistogram(0, 25, 50),
			EnergyHist: stats.NewHistogram(0, 2.5, 50),
			ByType:     map[string]*Fig6TypeStats{},
		}
		for _, req := range r.Gen.Completed() {
			if !req.Finished() || req.Done < r.T0 {
				continue
			}
			p := req.Cont.MeanActivePowerW()
			e := req.Cont.EnergyJ()
			w.PowerHist.Observe(p)
			w.EnergyHist.Observe(e)
			ts := w.ByType[req.Type]
			if ts == nil {
				ts = &Fig6TypeStats{}
				w.ByType[req.Type] = ts
			}
			ts.Count++
			ts.MeanPowerW.Observe(p)
			ts.MeanEnergyJ.Observe(e)
		}
		w.PowerModes = w.PowerHist.Modes(0.03)
		res.Workloads = append(res.Workloads, w)
	}
	return res, nil
}

// Render prints the distributions as text histograms.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "== Figures 6/7: request distributions, %s (SandyBridge, half load) ==\n", w.Name)
		fmt.Fprintf(&b, "mean request power distribution (W):\n%s", asciiHist(w.PowerHist, 40))
		fmt.Fprintf(&b, "request energy distribution (J):\n%s", asciiHist(w.EnergyHist, 40))
		fmt.Fprintf(&b, "power modes: %v\n", fmtFloats(w.PowerModes))
		for _, name := range SortedKeys(w.ByType) {
			ts := w.ByType[name]
			fmt.Fprintf(&b, "  %-14s n=%4d  mean power %5.1f W  mean energy %5.2f J\n",
				name, ts.Count, ts.MeanPowerW.Mean(), ts.MeanEnergyJ.Mean())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// asciiHist renders a histogram as bars.
func asciiHist(h *stats.Histogram, width int) string {
	var b strings.Builder
	maxFrac := 0.0
	for i := range h.Bins {
		if f := h.Fraction(i); f > maxFrac {
			maxFrac = f
		}
	}
	if maxFrac == 0 {
		return "(empty)\n"
	}
	for i := range h.Bins {
		f := h.Fraction(i)
		if f == 0 {
			continue
		}
		n := int(f / maxFrac * float64(width))
		fmt.Fprintf(&b, "  %6.2f | %s %.1f%%\n", h.BinCenter(i), strings.Repeat("#", n), 100*f)
	}
	return b.String()
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
