package workload

import (
	"powercontainers/internal/kernel"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// Stress is the Stressful Application Test benchmark adapted to a
// server-style workload: each request runs the Adler-32 checksum over a
// large memory segment with added floating point operations for about
// 100 ms, keeping core, FPU and cache/memory units simultaneously busy
// (§4.2). It is the highest-power workload and the one whose behaviour the
// offline-calibrated linear model misses the most.
type Stress struct{}

// Name implements Workload.
func (Stress) Name() string { return "Stress" }

// stressCycles yields ≈100 ms of execution on SandyBridge after memory
// stall inflation.
const stressCycles = 135e6

type stressParams struct {
	cycles float64
}

// Deploy implements Workload.
func (Stress) Deploy(k *kernel.Kernel, rng *sim.Rand) *server.Deployment {
	entry := kernel.NewListener("stress")
	handler := func(worker int) server.Handler {
		return func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op {
			env := payload.(*server.Envelope)
			p := env.Req.Payload.(stressParams)
			return []kernel.Op{
				kernel.OpCompute{BaseCycles: p.cycles, Act: ActStress},
				kernel.OpNet{Bytes: 1 << 10},
			}
		}
	}
	server.NewEntryPool(k, "stressapp", 2*k.Spec.Cores(), entry, handler)
	newRequest := func() *server.Request {
		return &server.Request{
			Type:    "stress/checksum",
			Payload: stressParams{cycles: stressCycles * jitter(rng, 0.05)},
		}
	}
	return &server.Deployment{
		Entry:          entry,
		NewRequest:     newRequest,
		MeanServiceSec: meanServiceSec(k.Spec, stressCycles, ActStress),
	}
}
