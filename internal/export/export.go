// Package export serializes per-request power-container accounting to CSV
// and JSON, for downstream analysis tooling (billing, anomaly detection,
// capacity planning — the consumers §1 motivates).
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// RequestRecord is the flat export schema of one request's container.
type RequestRecord struct {
	ID              int     `json:"id"`
	Type            string  `json:"type"`
	Client          string  `json:"client,omitempty"`
	ArriveMs        float64 `json:"arrive_ms"`
	ResponseMs      float64 `json:"response_ms"`
	CPUTimeMs       float64 `json:"cpu_time_ms"`
	EnergyJ         float64 `json:"energy_j"`
	CPUEnergyJ      float64 `json:"cpu_energy_j"`
	ChipEnergyJ     float64 `json:"chip_energy_j"`
	DeviceEnergyJ   float64 `json:"device_energy_j"`
	MeanActivePower float64 `json:"mean_active_power_w"`
	DutyRatio       float64 `json:"duty_ratio"`
	Instructions    float64 `json:"instructions"`
	CacheRefs       float64 `json:"cache_refs"`
	MemTransactions float64 `json:"mem_transactions"`
}

// FromRequest flattens one finished request.
func FromRequest(r *server.Request) (RequestRecord, error) {
	if r.Cont == nil {
		return RequestRecord{}, fmt.Errorf("export: request %q has no container", r.Type)
	}
	c := r.Cont
	return RequestRecord{
		ID:              c.ID,
		Type:            r.Type,
		Client:          r.Client,
		ArriveMs:        float64(r.Arrive) / float64(sim.Millisecond),
		ResponseMs:      float64(r.ResponseTime()) / float64(sim.Millisecond),
		CPUTimeMs:       float64(c.CPUTime) / float64(sim.Millisecond),
		EnergyJ:         c.EnergyJ(),
		CPUEnergyJ:      c.CPUEnergyJ,
		ChipEnergyJ:     c.ChipEnergyJ,
		DeviceEnergyJ:   c.DeviceEnergyJ,
		MeanActivePower: c.MeanActivePowerW(),
		DutyRatio:       c.MeanDutyFraction(),
		Instructions:    c.Counters.Instructions,
		CacheRefs:       c.Counters.Cache,
		MemTransactions: c.Counters.Mem,
	}, nil
}

// Collect flattens every finished request (skipping ones without
// containers).
func Collect(reqs []*server.Request) []RequestRecord {
	var out []RequestRecord
	for _, r := range reqs {
		if !r.Finished() {
			continue
		}
		rec, err := FromRequest(r)
		if err != nil {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// csvHeader lists the CSV columns in schema order.
var csvHeader = []string{
	"id", "type", "client", "arrive_ms", "response_ms", "cpu_time_ms",
	"energy_j", "cpu_energy_j", "chip_energy_j", "device_energy_j",
	"mean_active_power_w", "duty_ratio",
	"instructions", "cache_refs", "mem_transactions",
}

// WriteCSV writes records as CSV with a header row.
func WriteCSV(w io.Writer, records []RequestRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	for _, r := range records {
		row := []string{
			strconv.Itoa(r.ID), r.Type, r.Client,
			f(r.ArriveMs), f(r.ResponseMs), f(r.CPUTimeMs),
			f(r.EnergyJ), f(r.CPUEnergyJ), f(r.ChipEnergyJ), f(r.DeviceEnergyJ),
			f(r.MeanActivePower), f(r.DutyRatio),
			f(r.Instructions), f(r.CacheRefs), f(r.MemTransactions),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes records as a JSON array (indented).
func WriteJSON(w io.Writer, records []RequestRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// ClientUsage aggregates one client's accounted usage.
type ClientUsage struct {
	Client    string  `json:"client"`
	Requests  int     `json:"requests"`
	EnergyJ   float64 `json:"energy_j"`
	CPUTimeMs float64 `json:"cpu_time_ms"`
}

// AggregateByClient folds request records into per-client usage, sorted by
// descending energy — the billing/accounting view the paper motivates.
func AggregateByClient(records []RequestRecord) []ClientUsage {
	byClient := map[string]*ClientUsage{}
	for _, r := range records {
		name := r.Client
		if name == "" {
			name = "(anonymous)"
		}
		u := byClient[name]
		if u == nil {
			u = &ClientUsage{Client: name}
			byClient[name] = u
		}
		u.Requests++
		u.EnergyJ += r.EnergyJ
		u.CPUTimeMs += r.CPUTimeMs
	}
	out := make([]ClientUsage, 0, len(byClient))
	//pclint:allow maporder collected rows are fully ordered by sortClients below
	for _, u := range byClient {
		out = append(out, *u)
	}
	sortClients(out)
	return out
}

func sortClients(us []ClientUsage) {
	for i := 1; i < len(us); i++ {
		for j := i; j > 0 && (us[j].EnergyJ > us[j-1].EnergyJ ||
			(us[j].EnergyJ == us[j-1].EnergyJ && us[j].Client < us[j-1].Client)); j-- {
			us[j], us[j-1] = us[j-1], us[j]
		}
	}
}
