package workload

import (
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// RSA key classes and their per-request work. Costs scale roughly 4× per
// key-size doubling, like OpenSSL private-key operations; larger keys also
// touch a bigger working set, so their per-cycle power differs slightly —
// which is what per-request energy profiles capture and coarse
// CPU-utilization scaling misses (Figure 10).
var rsaKeys = []struct {
	Name   string
	Cycles float64
	Act    cpu.Activity
}{
	{"rsa/512", 9e6, cpu.Activity{IPC: 2.2, FLOPC: 0.02, LLCPC: 0.0005, MemPC: 0.00005}},
	{"rsa/1024", 36e6, cpu.Activity{IPC: 2.2, FLOPC: 0.02, LLCPC: 0.001, MemPC: 0.0001}},
	{"rsa/2048", 144e6, cpu.Activity{IPC: 2.2, FLOPC: 0.02, LLCPC: 0.003, MemPC: 0.0004}},
}

// RSA is the synthetic security-processing workload: each request runs RSA
// encryption/decryption procedures with one of three example keys (§4.2).
type RSA struct {
	// OnlyLargestKey restricts the mix to the 2048-bit key — the "new
	// request composition" of the Figure 10 prediction experiment.
	OnlyLargestKey bool
}

// Name implements Workload.
func (w RSA) Name() string { return "RSA-crypto" }

type rsaParams struct {
	cycles float64
	act    cpu.Activity
}

// Deploy implements Workload.
func (w RSA) Deploy(k *kernel.Kernel, rng *sim.Rand) *server.Deployment {
	entry := kernel.NewListener("rsa")
	handler := func(worker int) server.Handler {
		return func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op {
			env := payload.(*server.Envelope)
			p := env.Req.Payload.(rsaParams)
			return []kernel.Op{
				kernel.OpCompute{BaseCycles: p.cycles, Act: p.act},
				kernel.OpNet{Bytes: 2 << 10},
			}
		}
	}
	server.NewEntryPool(k, "openssl", 2*k.Spec.Cores(), entry, handler)

	var meanCycles float64
	if w.OnlyLargestKey {
		meanCycles = rsaKeys[2].Cycles
	} else {
		for _, key := range rsaKeys {
			meanCycles += key.Cycles / float64(len(rsaKeys))
		}
	}
	newRequest := func() *server.Request {
		i := 2
		if !w.OnlyLargestKey {
			i = rng.Intn(len(rsaKeys))
		}
		cycles := rsaKeys[i].Cycles * jitter(rng, 0.08)
		return &server.Request{
			Type:    rsaKeys[i].Name,
			Payload: rsaParams{cycles: cycles, act: rsaKeys[i].Act},
		}
	}
	return &server.Deployment{
		Entry:          entry,
		NewRequest:     newRequest,
		MeanServiceSec: meanServiceSec(k.Spec, meanCycles, ActRSA),
	}
}
