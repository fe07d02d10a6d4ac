// Command pcreport runs a named workload under the power-container
// facility and exports per-request accounting as CSV or JSON — the raw
// material for billing, anomaly detection and capacity analysis.
//
// Usage:
//
//	pcreport -workload GAE-Hybrid -machine SandyBridge -load half \
//	         -duration 10s -format csv > requests.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/export"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// The -seed flag is the run's registered base seed: every generator in
// the simulation derives from it.
//
//pclint:seed
var seed = flag.Uint64("seed", 1, "simulation seed")

func main() {
	machine := flag.String("machine", "SandyBridge", "machine model")
	wl := flag.String("workload", "GAE-Hybrid", "workload name")
	loadFlag := flag.String("load", "half", "load level: peak or half")
	duration := flag.Duration("duration", 10*time.Second, "virtual run duration")
	format := flag.String("format", "csv", "output format: csv or json")
	byClient := flag.Bool("by-client", false, "aggregate usage per client principal instead of per request")
	clients := flag.Int("clients", 40, "size of the simulated client pool")
	flag.Parse()

	if err := run(*machine, *wl, *loadFlag, *duration, *format, *seed, *byClient, *clients); err != nil {
		fmt.Fprintln(os.Stderr, "pcreport:", err)
		os.Exit(1)
	}
}

func run(machine, wl, loadFlag string, duration time.Duration, format string, seed uint64, byClient bool, clients int) error {
	spec, err := cpu.SpecByName(machine)
	if err != nil {
		return err
	}
	w, err := experiments.WorkloadByName(wl)
	if err != nil {
		return err
	}
	var load experiments.LoadLevel
	switch loadFlag {
	case "peak":
		load = experiments.PeakLoad
	case "half":
		load = experiments.HalfLoad
	default:
		return fmt.Errorf("unknown load %q (peak|half)", loadFlag)
	}
	m, err := experiments.NewMachine(spec, core.ApproachRecalibrated, seed)
	if err != nil {
		return err
	}
	rig := m.Deploy(w)
	rig.Gen.Clients = server.NewClientPool(clients, 0.9, m.Rng.Fork(15))
	until := sim.Time(duration)
	rig.Drive(load, until)
	m.Eng.RunUntil(until)

	records := export.Collect(rig.Gen.Completed())
	if byClient {
		usage := export.AggregateByClient(records)
		if format == "json" {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(usage)
		}
		fmt.Println("client,requests,energy_j,cpu_time_ms")
		for _, u := range usage {
			fmt.Printf("%s,%d,%.6f,%.3f\n", u.Client, u.Requests, u.EnergyJ, u.CPUTimeMs)
		}
		return nil
	}
	switch format {
	case "csv":
		return export.WriteCSV(os.Stdout, records)
	case "json":
		return export.WriteJSON(os.Stdout, records)
	}
	return fmt.Errorf("unknown format %q (csv|json)", format)
}
