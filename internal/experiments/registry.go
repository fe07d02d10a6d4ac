package experiments

import (
	"fmt"
	"sort"

	"powercontainers/internal/cpu"
)

// Renderable is any experiment result that can print itself in the paper's
// row/series format.
type Renderable interface {
	Render() string
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key (fig1..fig14, table1, coeffs, overhead).
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Aliases name results folded into the same run (fig3 ships with
	// fig2, fig7 with fig6, fig12 with fig11, table1 with fig14).
	Aliases []string
	// Run executes the experiment with the given execution
	// configuration (worker-pool bound, per-run assembly) and seed.
	// Experiments whose grids decompose into independent jobs fan out
	// across ex.Jobs workers; the rest run as one job and ignore
	// ex.Jobs. Results are byte-identical at any worker count.
	Run func(ex Exec, seed uint64) (Renderable, error)
	// Exclusive marks experiments that measure real host wall-clock
	// (not virtual time) and therefore must not overlap with other
	// running experiments, which would inflate their timings.
	Exclusive bool
}

// Registry returns every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{
			ID: "intro", Title: "motivating measurements: idle proportions, power variation (§1)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Intro(ex, seed) },
		},
		{
			ID: "fig1", Title: "incremental per-core power (shared chip maintenance power)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig1(ex, seed) },
		},
		{
			ID: "fig2", Title: "measurement/model alignment cross-correlation", Aliases: []string{"fig3"},
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig2(ex, seed) },
		},
		{
			ID: "fig4", Title: "captured WeBWorK request execution with per-stage power/energy",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig4(ex, seed) },
		},
		{
			ID: "coeffs", Title: "calibrated offline model coefficients (§4.1)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Coefficients(cpu.SandyBridge) },
		},
		{
			ID: "fig5", Title: "measured active power of application workloads",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig5(Fig5Options{Exec: ex}, seed) },
		},
		{
			ID: "fig6", Title: "request power and energy distributions", Aliases: []string{"fig7"},
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig6(ex, seed) },
		},
		{
			ID: "fig8", Title: "validation error of the three attribution approaches",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig8(Fig8Options{Exec: ex}, seed) },
		},
		{
			ID: "fig9", Title: "GAE background processing power",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig9(ex, seed) },
		},
		{
			ID: "fig10", Title: "power prediction at new request compositions",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig10Ex(ex, seed) },
		},
		{
			ID: "fig11", Title: "fair request power conditioning with power viruses", Aliases: []string{"fig12"},
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig11(ex, seed) },
		},
		{
			ID: "fig13", Title: "cross-machine energy usage ratios",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig13Ex(ex, seed) },
		},
		{
			ID: "fig14", Title: "heterogeneity-aware request distribution", Aliases: []string{"table1"},
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Fig14Ex(ex, seed) },
		},
		{
			ID: "overhead", Title: "facility overhead assessment (§3.5)",
			Run:       func(ex Exec, seed uint64) (Renderable, error) { return Overhead() },
			Exclusive: true,
		},
		{
			ID: "ablations", Title: "design-choice ablations (chip share, tagging, observer effect, user-level transfers)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return AblationsEx(ex, seed) },
		},
		{
			ID: "cluster3", Title: "three-tier heterogeneous cluster distribution (extension of §4.4)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return Cluster3Ex(ex, seed) },
		},
		{
			ID: "faultmatrix", Title: "attribution error vs injected meter-fault rate, degradation on/off (robustness extension)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return FaultMatrixEx(ex, seed) },
		},
		{
			ID: "streamequiv", Title: "streaming vs batch attribution equivalence (online engine extension)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return StreamEquiv(ex, seed) },
		},
		{
			ID: "tenantmix", Title: "multi-tenant budget enforcement and isolation (hierarchy extension)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return TenantMixEx(ex, seed) },
		},
		{
			ID: "crashmatrix", Title: "exact recovery of the durable record stream across injected crash points (durability extension)",
			Run: func(ex Exec, seed uint64) (Renderable, error) { return CrashMatrix(ex, seed) },
		},
	}
}

// Lookup resolves an experiment id or alias.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
		for _, a := range e.Aliases {
			if a == id {
				return e, nil
			}
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
		ids = append(ids, e.Aliases...)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}
