package workload

import (
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// GAE is the Google App Engine cloud workload (§4.2): the Vosao content
// management application on a local GAE Java server, modeling collaborative
// web content editing at a 9:1 read/write ratio, plus the GAE system's
// untraceable background processing — and, for GAE-Hybrid, a mixture with
// simple power-virus requests that keep the cache/memory and instruction
// pipelining units simultaneously busy.
type GAE struct {
	// VirusLoadFraction is the fraction of offered busy-time generated
	// by power-virus requests: 0 for GAE-Vosao, ≈0.5 for GAE-Hybrid.
	VirusLoadFraction float64
	// DisableBackground suppresses the GAE background processing tasks.
	DisableBackground bool
}

// Name implements Workload.
func (w GAE) Name() string {
	if w.VirusLoadFraction > 0 {
		return "GAE-Hybrid"
	}
	return "GAE-Vosao"
}

// Request work parameters.
const (
	gaeReadCycles  = 30e6
	gaeWriteCycles = 55e6
	// VirusCycles yields ≈100 ms on SandyBridge after stall inflation;
	// the virus "occupies a CPU core for about 100 msecs" (§4.3).
	VirusCycles = 125e6

	// Background processing: each of two system tasks alternates a
	// ≈10 ms burst with a 6 ms pause, together drawing roughly a third
	// of the system's active power at load (Figure 9).
	gaeBackgroundBurst = 30e6
	gaeBackgroundPause = 6 * sim.Millisecond
	gaeBackgroundTasks = 2
)

type gaeParams struct {
	cycles    float64
	act       string // "jvm" or "virus"
	diskBytes int64
	netBytes  int64
}

// Deploy implements Workload.
func (w GAE) Deploy(k *kernel.Kernel, rng *sim.Rand) *server.Deployment {
	entry := kernel.NewListener("gae")
	handler := func(worker int) server.Handler {
		return func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op {
			env := payload.(*server.Envelope)
			p := env.Req.Payload.(gaeParams)
			act := ActJVM
			if p.act == "virus" {
				act = ActVirus
			}
			ops := []kernel.Op{kernel.OpCompute{BaseCycles: p.cycles, Act: act}}
			if p.diskBytes > 0 {
				ops = append(ops, kernel.OpDisk{Bytes: p.diskBytes})
			}
			if p.netBytes > 0 {
				ops = append(ops, kernel.OpNet{Bytes: p.netBytes})
			}
			return ops
		}
	}
	server.NewEntryPool(k, "gae-java", 2*k.Spec.Cores(), entry, handler)

	if !w.DisableBackground {
		SpawnGAEBackground(k)
	}

	// Convert the virus *load* fraction into a request-count probability
	// using the per-type mean busy times.
	vosaoSec := 0.9*meanServiceSec(k.Spec, gaeReadCycles, ActJVM) +
		0.1*meanServiceSec(k.Spec, gaeWriteCycles, ActJVM)
	virusSec := meanServiceSec(k.Spec, VirusCycles, ActVirus)
	virusProb := 0.0
	if w.VirusLoadFraction > 0 {
		lf := w.VirusLoadFraction
		virusProb = (lf / virusSec) / (lf/virusSec + (1-lf)/vosaoSec)
	}

	newRequest := func() *server.Request {
		if virusProb > 0 && rng.Float64() < virusProb {
			return VirusRequest(rng)
		}
		if rng.Float64() < 0.9 {
			p := gaeParams{cycles: gaeReadCycles * jitter(rng, 0.15), act: "jvm", netBytes: 30 << 10}
			if rng.Float64() < 0.2 {
				p.diskBytes = 100 << 10
			}
			return &server.Request{Type: "vosao/read", Payload: p}
		}
		return &server.Request{Type: "vosao/write", Payload: gaeParams{
			cycles: gaeWriteCycles * jitter(rng, 0.15), act: "jvm",
			diskBytes: 250 << 10, netBytes: 10 << 10,
		}}
	}
	mean := (1-virusProb)*vosaoSec + virusProb*virusSec
	return &server.Deployment{
		Entry:          entry,
		NewRequest:     newRequest,
		MeanServiceSec: mean,
	}
}

// VirusRequest builds one power-virus request; the Figure 11 conditioning
// experiment injects these sporadically into a running Vosao deployment.
func VirusRequest(rng *sim.Rand) *server.Request {
	return &server.Request{Type: "gae/virus", Payload: gaeParams{
		cycles: VirusCycles * jitter(rng, 0.05), act: "virus", netBytes: 1 << 10,
	}}
}

// GAEBackgroundCoreDemand returns the expected busy-core demand of the GAE
// background tasks on a machine — capacity planners must reserve for it.
func GAEBackgroundCoreDemand(spec cpu.MachineSpec) float64 {
	burstSec := meanServiceSec(spec, gaeBackgroundBurst, ActGAEBackground)
	pauseSec := float64(gaeBackgroundPause) / float64(sim.Second)
	return gaeBackgroundTasks * burstSec / (burstSec + pauseSec)
}

// SpawnGAEBackground starts the GAE system's background processing tasks:
// long-running unbound tasks whose activity lands in the facility's special
// background container because it "presents no traceable connections to
// application request executions" (§4.2).
func SpawnGAEBackground(k *kernel.Kernel) []*kernel.Task {
	var tasks []*kernel.Task
	for i := 0; i < gaeBackgroundTasks; i++ {
		burst := true
		prog := kernel.FuncProgram(func(k *kernel.Kernel, t *kernel.Task) kernel.Op {
			// Alternate burst and pause forever.
			if burst {
				burst = false
				return kernel.OpCompute{BaseCycles: gaeBackgroundBurst, Act: ActGAEBackground}
			}
			burst = true
			return kernel.OpSleep{D: gaeBackgroundPause}
		})
		t := k.Spawn("gae-system", prog, nil)
		// Platform services run at elevated priority, so background
		// processing keeps its share even under request floods — the
		// paper measured it at roughly a third of active power at both
		// peak and half load (Figure 9).
		t.Priority = 1
		tasks = append(tasks, t)
	}
	return tasks
}
