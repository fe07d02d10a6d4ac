package experiments

import (
	"fmt"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Fig1Result reproduces Figure 1: the incremental (per-core) power increase
// as 1..N cores of a CPU-spinning microbenchmark are utilized, on the
// quad-core SandyBridge and the dual-socket dual-core Woodcrest. The
// non-proportional first increments expose the shared chip maintenance
// power; on Woodcrest the first TWO increments are high because the
// scheduler spreads the first two tasks across both sockets.
type Fig1Result struct {
	Machines []Fig1Machine
}

// Fig1Machine is one machine's incremental power staircase.
type Fig1Machine struct {
	Spec cpu.MachineSpec
	// ActiveW[k] is measured machine active power with k busy cores
	// (index 0 = idle = 0 active watts).
	ActiveW []float64
	// IncrementW[k] is ActiveW[k+1] − ActiveW[k].
	IncrementW []float64
}

// Fig1 measures the incremental power staircases.
func Fig1(ex Exec, seed uint64) (*Fig1Result, error) {
	res := &Fig1Result{}
	// The paper's figure shows SandyBridge and Woodcrest; Westmere's
	// twelve-core staircase is included as a bonus row (its first two
	// increments also activate the two sockets).
	for _, spec := range []cpu.MachineSpec{cpu.SandyBridge, cpu.Woodcrest, cpu.Westmere} {
		m := Fig1Machine{Spec: spec, ActiveW: []float64{0}}
		for k := 1; k <= spec.Cores(); k++ {
			w, err := spinActivePower(ex, spec, k, seed+uint64(k))
			if err != nil {
				return nil, err
			}
			m.ActiveW = append(m.ActiveW, w)
		}
		for k := 1; k < len(m.ActiveW); k++ {
			m.IncrementW = append(m.IncrementW, m.ActiveW[k]-m.ActiveW[k-1])
		}
		res.Machines = append(res.Machines, m)
	}
	return res, nil
}

// spinActivePower measures machine active power with k spinning tasks.
// The caller derives a distinct seed per point (base+k), keeping the
// derivation where both inputs are in scope.
func spinActivePower(ex Exec, spec cpu.MachineSpec, k int, seed uint64) (float64, error) {
	m, err := ex.NewMachine(spec, core.ApproachChipShare, seed)
	if err != nil {
		return 0, err
	}
	spin := workload.MicroBenches()[0] // cpu-spin
	for i := 0; i < k; i++ {
		m.K.Spawn("spin", kernel.Script(kernel.OpCompute{
			BaseCycles: 1e12, Act: spin.Act,
		}), nil)
	}
	m.Eng.RunUntil(6 * sim.Second)
	w, err := WattsupActiveMean(m, m.Eng.Now(), 1*sim.Second, 3*sim.Second)
	if err != nil {
		return 0, err
	}
	return w, m.FinalizeAudit()
}

// Render prints the figure as text.
func (r *Fig1Result) Render() string {
	t := &Table{
		Title:  "Figure 1: incremental (per-core) power of a CPU-spinning microbenchmark",
		Header: []string{"machine", "transition", "incremental power"},
		Caption: "The increment from idle to the first busy core (and, on the dual-socket\n" +
			"Woodcrest, to the second, which activates the second socket) exceeds later\n" +
			"increments: shared chip maintenance power does not scale with core events.",
	}
	for _, m := range r.Machines {
		for k, inc := range m.IncrementW {
			var trans string
			if k == 0 {
				trans = "idle -> 1 core"
			} else {
				trans = fmt.Sprintf("%d -> %d cores", k, k+1)
			}
			t.AddRow(m.Spec.Name, trans, w1(inc))
		}
	}
	return t.String()
}
