package powercontainers

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"powercontainers/internal/experiments"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// StageReport is one server component's share of a request (Figure 4's
// per-stage annotations).
type StageReport struct {
	// Component is the task name (e.g. "httpd", "mysqld", "latex").
	Component string
	// MeanWatts is the stage's mean active power while executing.
	MeanWatts float64
	// EnergyJoules is the stage's attributed energy.
	EnergyJoules float64
	// BusyTime is the stage's attributed CPU time.
	BusyTime time.Duration
}

// RequestReport summarizes one request's power container.
type RequestReport struct {
	// Type is the request class (e.g. "rsa/2048", "vosao/read").
	Type string
	// EnergyJoules is total attributed energy (CPU plus devices).
	EnergyJoules float64
	// MeanActiveWatts is mean modeled power over the busy execution.
	MeanActiveWatts float64
	// CPUTime is attributed busy time across all stages.
	CPUTime time.Duration
	// Response is the server residence time.
	Response time.Duration
	// DutyRatio is the time-averaged duty-cycle ratio applied by power
	// conditioning (1.0 = never throttled).
	DutyRatio float64
	// Stages lists per-component attribution.
	Stages []StageReport
	// FlowEvents holds the captured request-flow trace when request
	// tracing was enabled.
	FlowEvents []string
}

// Report is one run's outcome.
type Report struct {
	Machine  string
	Workload string
	// WindowStart/WindowEnd bound the measurement window (virtual time).
	WindowStart, WindowEnd time.Duration
	// MeasuredActiveWatts is the wall meter's mean active power.
	MeasuredActiveWatts float64
	// AccountedWatts is the aggregate profiled request power — the sum
	// of all container energy over the window divided by its length.
	AccountedWatts float64
	// BackgroundWatts is the background container's share.
	BackgroundWatts float64
	// Requests summarizes every request completed inside the window.
	Requests []RequestReport
	// ThroughputPerSec is completed requests per second.
	ThroughputPerSec float64
	// MeanResponse is the mean response time over the window.
	MeanResponse time.Duration
	// Anomalies lists detected power anomalies (EnableAnomalyDetection):
	// request type, detection offset, and triggering power.
	Anomalies []AnomalyReport
	// Clients aggregates per-client energy usage (AssignClients), sorted
	// by descending energy.
	Clients []ClientUsage
	// Audited records whether the run executed under the runtime
	// invariant auditor (WithAudit or PC_AUDIT); an audited report with no
	// error from Execute passed every invariant check.
	Audited bool
}

// ClientUsage is one client principal's accounted usage over the window.
type ClientUsage struct {
	Client       string
	Requests     int
	EnergyJoules float64
	CPUTime      time.Duration
}

// AnomalyReport is one detected power anomaly.
type AnomalyReport struct {
	// RequestType is the offending request's class.
	RequestType string
	// At is the detection time.
	At time.Duration
	// PowerWatts triggered detection against BaselineWatts ± SigmaWatts.
	PowerWatts    float64
	BaselineWatts float64
	SigmaWatts    float64
}

// ValidationError is |AccountedWatts − MeasuredActiveWatts| / measured: the
// paper's accounting accuracy metric (Figure 8).
func (r *Report) ValidationError() float64 {
	return experiments.ValidationError(r.AccountedWatts, r.MeasuredActiveWatts)
}

// buildReport assembles the run's report over window [t0, t1), given its
// measured, accounted and background power.
func (r *Run) buildReport(t0, t1 sim.Time, measuredW, accountedW, backgroundW float64) *Report {
	m := r.sys.m
	windowSec := float64(t1-t0) / float64(sim.Second)
	rep := &Report{
		Machine:             m.K.Spec.Name,
		Workload:            r.wl.Name(),
		WindowStart:         time.Duration(t0),
		WindowEnd:           time.Duration(t1),
		MeasuredActiveWatts: measuredW,
		AccountedWatts:      accountedW,
		BackgroundWatts:     backgroundW,
		Audited:             m.Audit != nil,
	}

	var totalResp time.Duration
	n := 0
	collect := func(reqs []*server.Request) {
		for _, q := range reqs {
			if !q.Finished() || q.Done < t0 || q.Done >= t1 || q.Cont == nil {
				continue
			}
			rr := requestReport(q)
			rep.Requests = append(rep.Requests, rr)
			totalResp += rr.Response
			n++
		}
	}
	collect(r.gen.Completed())
	for _, g := range r.extra {
		collect(g.Completed())
	}
	sort.SliceStable(rep.Requests, func(i, j int) bool {
		return rep.Requests[i].Type < rep.Requests[j].Type
	})
	rep.ThroughputPerSec = float64(n) / windowSec
	if n > 0 {
		rep.MeanResponse = totalResp / time.Duration(n)
	}
	if r.clients > 0 {
		agg := map[string]*ClientUsage{}
		var order []string
		collectClients := func(reqs []*server.Request) {
			for _, q := range reqs {
				if !q.Finished() || q.Done < t0 || q.Done >= t1 || q.Cont == nil {
					continue
				}
				u := agg[q.Client]
				if u == nil {
					u = &ClientUsage{Client: q.Client}
					agg[q.Client] = u
					order = append(order, q.Client)
				}
				u.Requests++
				u.EnergyJoules += q.Cont.EnergyJ()
				u.CPUTime += time.Duration(q.Cont.CPUTime)
			}
		}
		collectClients(r.gen.Completed())
		for _, g := range r.extra {
			collectClients(g.Completed())
		}
		sort.Strings(order)
		for _, name := range order {
			rep.Clients = append(rep.Clients, *agg[name])
		}
		sort.SliceStable(rep.Clients, func(i, j int) bool {
			return rep.Clients[i].EnergyJoules > rep.Clients[j].EnergyJoules
		})
	}
	if r.detector != nil {
		for _, a := range r.detector.Anomalies() {
			rep.Anomalies = append(rep.Anomalies, AnomalyReport{
				RequestType:   a.Container.Label,
				At:            time.Duration(a.T),
				PowerWatts:    a.PowerW,
				BaselineWatts: a.BaselineW,
				SigmaWatts:    a.SigmaW,
			})
		}
	}
	return rep
}

// requestReport converts a finished request's container into its report.
func requestReport(q *server.Request) RequestReport {
	c := q.Cont
	rr := RequestReport{
		Type:            q.Type,
		EnergyJoules:    c.EnergyJ(),
		MeanActiveWatts: c.MeanActivePowerW(),
		CPUTime:         time.Duration(c.CPUTime),
		Response:        time.Duration(q.ResponseTime()),
		DutyRatio:       c.MeanDutyFraction(),
	}
	for _, st := range c.Stages() {
		rr.Stages = append(rr.Stages, StageReport{
			Component:    st.Task,
			MeanWatts:    st.MeanPowerW(),
			EnergyJoules: st.EnergyJ,
			BusyTime:     time.Duration(st.CPUTime),
		})
	}
	for _, ev := range c.Trace {
		rr.FlowEvents = append(rr.FlowEvents, fmt.Sprintf("%s %s %s %s",
			sim.FormatTime(ev.T-q.Arrive), ev.Kind, ev.Task, ev.Detail))
	}
	return rr
}

// Summary renders the report compactly.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: measured %.1f W active, accounted %.1f W (err %.1f%%), background %.1f W\n",
		r.Workload, r.Machine, r.MeasuredActiveWatts, r.AccountedWatts,
		100*r.ValidationError(), r.BackgroundWatts)
	fmt.Fprintf(&b, "%d requests in window (%.1f req/s), mean response %v\n",
		len(r.Requests), r.ThroughputPerSec, r.MeanResponse.Round(time.Millisecond))

	byType := map[string]*struct {
		n            int
		energy, watt float64
	}{}
	var order []string
	for _, q := range r.Requests {
		t := byType[q.Type]
		if t == nil {
			t = &struct {
				n            int
				energy, watt float64
			}{}
			byType[q.Type] = t
			order = append(order, q.Type)
		}
		t.n++
		t.energy += q.EnergyJoules
		t.watt += q.MeanActiveWatts
	}
	sort.Strings(order)
	for _, name := range order {
		t := byType[name]
		fmt.Fprintf(&b, "  %-16s n=%5d  mean energy %6.2f J  mean power %5.1f W\n",
			name, t.n, t.energy/float64(t.n), t.watt/float64(t.n))
	}
	return b.String()
}
