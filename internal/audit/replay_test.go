package audit

import (
	"testing"

	"powercontainers/internal/export"
)

func sampleRecords() []export.RequestRecord {
	return []export.RequestRecord{
		{ID: 1, Type: "rsa/2048", Client: "alice", ArriveMs: 10, ResponseMs: 4.5,
			CPUTimeMs: 3.2, EnergyJ: 0.12, CPUEnergyJ: 0.11, DeviceEnergyJ: 0.01},
		{ID: 2, Type: "vosao/read", Client: "bob", ArriveMs: 12, ResponseMs: 7.25,
			CPUTimeMs: 5.0, EnergyJ: 0.31, CPUEnergyJ: 0.29, DeviceEnergyJ: 0.02},
	}
}

func TestHashAccountingDeterministic(t *testing.T) {
	h1, err := HashAccounting(sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashAccounting(sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same records hashed differently: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", h1)
	}

	changed := sampleRecords()
	changed[1].EnergyJ += 1e-9
	h3, err := HashAccounting(changed)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("hash did not change when a record's energy changed")
	}
}
