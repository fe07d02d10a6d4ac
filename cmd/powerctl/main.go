// Command powerctl manages a persistent power-container hierarchy store:
// tenants, services, budgets, and their accumulated usage, kept in the
// versioned JSON state file the core package's JSONState backend defines.
//
// Usage:
//
//	powerctl -state FILE create tenant NAME
//	powerctl -state FILE create service TENANT SERVICE
//	powerctl -state FILE budget TENANT [-power W] [-energy J]
//	powerctl -state FILE list
//	powerctl -state FILE inspect [TENANT]
//	powerctl -state FILE stats
//	powerctl -state FILE ingest SNAPSHOT.json
//
// create and budget mutate structure and budgets; ingest merges a
// hierarchy snapshot exported from a run (usage accumulates, structure is
// adopted, non-zero budgets replace); stats and list render the store.
// All writes go through the atomic versioned JSON backend, so a crashed
// powerctl never corrupts the store.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"powercontainers/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "powerctl:", err)
		os.Exit(1)
	}
}

const usageText = `usage:
  powerctl -state FILE create tenant NAME
  powerctl -state FILE create service TENANT SERVICE
  powerctl -state FILE budget TENANT [-power W] [-energy J]
  powerctl -state FILE list
  powerctl -state FILE inspect [TENANT]
  powerctl -state FILE stats
  powerctl -state FILE ingest SNAPSHOT.json`

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	statePath := fs.String("state", "", "hierarchy state file (versioned JSON)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(stderr, usageText)
		return fmt.Errorf("missing subcommand")
	}
	if *statePath == "" {
		return fmt.Errorf("-state FILE is required")
	}
	st := core.NewJSONState(*statePath)
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "create":
		return runCreate(st, rest)
	case "budget":
		return runBudget(st, rest)
	case "list":
		return runList(st, rest, stdout)
	case "inspect":
		return runInspect(st, rest, stdout)
	case "stats":
		return runStats(st, rest, stdout)
	case "ingest":
		return runIngest(st, rest, stdout)
	default:
		fmt.Fprintln(stderr, usageText)
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// load reads the store, returning an empty current-version snapshot for a
// store that does not exist yet.
func load(st *core.JSONState) (core.HierarchySnapshot, error) {
	snap, _, err := st.Load()
	return snap, err
}

func runCreate(st *core.JSONState, args []string) error {
	snap, err := load(st)
	if err != nil {
		return err
	}
	switch {
	case len(args) == 2 && args[0] == "tenant":
		if strings.TrimSpace(args[1]) == "" {
			return fmt.Errorf("create tenant: empty name")
		}
		snap.EnsureTenant(args[1])
	case len(args) == 3 && args[0] == "service":
		if strings.TrimSpace(args[1]) == "" || strings.TrimSpace(args[2]) == "" {
			return fmt.Errorf("create service: empty tenant or service name")
		}
		snap.EnsureService(args[1], args[2])
	default:
		return fmt.Errorf("usage: create tenant NAME | create service TENANT SERVICE")
	}
	return st.Save(snap)
}

func runBudget(st *core.JSONState, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: budget TENANT [-power W] [-energy J]")
	}
	tenant, args := args[0], args[1:]
	fs := flag.NewFlagSet("budget", flag.ContinueOnError)
	powerW := fs.Float64("power", 0, "tenant power budget in watts (0 clears)")
	energyJ := fs.Float64("energy", 0, "tenant energy budget in joules (0 clears)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *powerW < 0 || *energyJ < 0 {
		return fmt.Errorf("budget: negative budget")
	}
	snap, err := load(st)
	if err != nil {
		return err
	}
	snap.EnsureTenant(tenant).Budget = core.Budget{PowerW: *powerW, EnergyJ: *energyJ}
	return st.Save(snap)
}

func runList(st *core.JSONState, args []string, stdout io.Writer) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: list")
	}
	snap, err := load(st)
	if err != nil {
		return err
	}
	if len(snap.Tenants) == 0 {
		fmt.Fprintln(stdout, "no tenants")
		return nil
	}
	for _, t := range snap.Tenants {
		fmt.Fprintf(stdout, "%s%s\n", t.Name, budgetSuffix(t.Budget))
		for _, s := range t.Services {
			fmt.Fprintf(stdout, "  %s/%s  (%d requests)\n", t.Name, s.Name, s.Requests)
		}
	}
	return nil
}

func budgetSuffix(b core.Budget) string {
	if b.IsZero() {
		return ""
	}
	var parts []string
	if b.PowerW > 0 {
		parts = append(parts, fmt.Sprintf("power %g W", b.PowerW))
	}
	if b.EnergyJ > 0 {
		parts = append(parts, fmt.Sprintf("energy %g J", b.EnergyJ))
	}
	return "  [budget: " + strings.Join(parts, ", ") + "]"
}

func runInspect(st *core.JSONState, args []string, stdout io.Writer) error {
	snap, err := load(st)
	if err != nil {
		return err
	}
	var v any
	switch len(args) {
	case 0:
		v = snap
	case 1:
		t := snap.FindTenant(args[0])
		if t == nil {
			return fmt.Errorf("inspect: unknown tenant %q", args[0])
		}
		v = t
	default:
		return fmt.Errorf("usage: inspect [TENANT]")
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

func runStats(st *core.JSONState, args []string, stdout io.Writer) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: stats")
	}
	snap, err := load(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-24s %10s %12s %12s %12s\n", "tenant/service", "requests", "cpu J", "device J", "total J")
	var grand core.ServiceSnapshot
	for _, t := range snap.Tenants {
		tot := t.Totals()
		fmt.Fprintf(stdout, "%-24s %10d %12.6f %12.6f %12.6f\n",
			t.Name, tot.Requests, tot.CPUEnergyJ, tot.DeviceEnergyJ, tot.EnergyJ())
		for _, s := range t.Services {
			fmt.Fprintf(stdout, "  %-22s %10d %12.6f %12.6f %12.6f\n",
				t.Name+"/"+s.Name, s.Requests, s.CPUEnergyJ, s.DeviceEnergyJ, s.EnergyJ())
		}
		grand.Requests += tot.Requests
		grand.CPUEnergyJ += tot.CPUEnergyJ
		grand.DeviceEnergyJ += tot.DeviceEnergyJ
	}
	fmt.Fprintf(stdout, "%-24s %10d %12.6f %12.6f %12.6f\n",
		"total", grand.Requests, grand.CPUEnergyJ, grand.DeviceEnergyJ, grand.EnergyJ())
	return nil
}

func runIngest(st *core.JSONState, args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: ingest SNAPSHOT.json")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var other core.HierarchySnapshot
	if err := json.Unmarshal(data, &other); err != nil {
		return fmt.Errorf("ingest %s: %w", args[0], err)
	}
	if other.Version != core.SnapshotVersion {
		return fmt.Errorf("ingest %s: snapshot version %d, want %d", args[0], other.Version, core.SnapshotVersion)
	}
	snap, err := load(st)
	if err != nil {
		return err
	}
	snap.Merge(other)
	if err := st.Save(snap); err != nil {
		return err
	}
	n := 0
	for _, t := range other.Tenants {
		n += len(t.Services)
	}
	fmt.Fprintf(stdout, "merged %d tenants (%d services) from %s\n", len(other.Tenants), n, args[0])
	return nil
}
