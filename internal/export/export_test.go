package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// runSample produces a handful of finished requests.
func runSample(t *testing.T) []*server.Request {
	t.Helper()
	eng := sim.NewEngine()
	profile := power.MustProfile(cpu.SandyBridge)
	k, err := kernel.New("exp", cpu.SandyBridge, profile, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	coeff := model.Coefficients{Core: 6, Ins: 1.5, Cache: 130, Mem: 900, Chip: 5, Disk: 1.7, Net: 5.8, IncludesChipShare: true}
	fac := core.Attach(k, coeff, core.Config{Approach: core.ApproachChipShare})
	rng := sim.NewRand(3)
	dep := workload.RSA{}.Deploy(k, rng)
	gen := server.NewLoadGen(k, fac, dep)
	gen.RunOpenLoop(50, sim.Second, rng.Fork(1))
	eng.RunUntil(2 * sim.Second)
	return gen.Completed()
}

func TestCollectAndCSVRoundTrip(t *testing.T) {
	reqs := runSample(t)
	records := Collect(reqs)
	if len(records) < 10 {
		t.Fatalf("records = %d", len(records))
	}
	for _, r := range records[:5] {
		if r.EnergyJ <= 0 || r.CPUTimeMs <= 0 || r.Type == "" {
			t.Fatalf("degenerate record %+v", r)
		}
		if r.ChipEnergyJ > r.CPUEnergyJ {
			t.Fatalf("chip energy exceeds CPU energy: %+v", r)
		}
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(records)+1 {
		t.Fatalf("csv rows = %d, want %d", len(rows), len(records)+1)
	}
	if rows[0][0] != "id" || rows[0][1] != "type" {
		t.Fatalf("header = %v", rows[0])
	}
	if len(rows[1]) != len(csvHeader) {
		t.Fatalf("row width = %d, want %d", len(rows[1]), len(csvHeader))
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	reqs := runSample(t)
	records := Collect(reqs)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, records); err != nil {
		t.Fatal(err)
	}
	var back []RequestRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(records) {
		t.Fatalf("json round trip lost records: %d vs %d", len(back), len(records))
	}
	if back[0] != records[0] {
		t.Fatalf("record changed: %+v vs %+v", back[0], records[0])
	}
}

func TestFromRequestWithoutContainer(t *testing.T) {
	if _, err := FromRequest(&server.Request{Type: "x"}); err == nil {
		t.Fatal("containerless request accepted")
	}
}

func TestCollectSkipsUnfinished(t *testing.T) {
	reqs := runSample(t)
	// Append an unfinished request.
	reqs = append(reqs, &server.Request{Type: "pending"})
	records := Collect(reqs)
	for _, r := range records {
		if strings.Contains(r.Type, "pending") {
			t.Fatal("unfinished request exported")
		}
	}
}

func TestAggregateByClient(t *testing.T) {
	records := []RequestRecord{
		{Client: "a", EnergyJ: 1, CPUTimeMs: 5},
		{Client: "b", EnergyJ: 4, CPUTimeMs: 2},
		{Client: "a", EnergyJ: 2, CPUTimeMs: 1},
		{EnergyJ: 0.5},
	}
	us := AggregateByClient(records)
	if len(us) != 3 {
		t.Fatalf("clients = %d", len(us))
	}
	if us[0].Client != "b" || us[1].Client != "a" {
		t.Fatalf("order wrong: %+v", us)
	}
	if us[1].Requests != 2 || us[1].EnergyJ != 3 || us[1].CPUTimeMs != 6 {
		t.Fatalf("aggregation wrong: %+v", us[1])
	}
	if us[2].Client != "(anonymous)" {
		t.Fatalf("anonymous bucket missing: %+v", us[2])
	}
}
