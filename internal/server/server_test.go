package server

import (
	"math"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

var quadSpec = cpu.MachineSpec{
	Name: "Quad", Chips: 1, CoresPerChip: 4, FreqHz: 1e9, DutyLevels: 8,
}

var testProfile = power.TrueProfile{
	MachineIdleW: 40, PkgIdleW: 2, ChipMaintW: 5,
	CoreW: 8, InsW: 2, FloatW: 1, CacheW: 100, MemW: 200,
	DiskW: 1.7, NetW: 5.8,
}

func newRig(t *testing.T) (*kernel.Kernel, *core.Facility) {
	t.Helper()
	eng := sim.NewEngine()
	k, err := kernel.New("test", quadSpec, testProfile, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	coeff := model.Coefficients{Core: 8, Ins: 2, Chip: 5, IncludesChipShare: true}
	fac := core.Attach(k, coeff, core.Config{Approach: core.ApproachChipShare})
	return k, fac
}

// echoDeployment serves requests with a fixed compute burst.
func echoDeployment(k *kernel.Kernel, burst float64) *Deployment {
	entry := kernel.NewListener("echo")
	NewEntryPool(k, "echo", 8, entry, func(int) Handler {
		return func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op {
			env := payload.(*Envelope)
			_ = env
			return []kernel.Op{kernel.OpCompute{BaseCycles: burst, Act: cpu.Activity{IPC: 1}}}
		}
	})
	n := 0
	return &Deployment{
		Entry: entry,
		NewRequest: func() *Request {
			n++
			return &Request{Type: "echo"}
		},
		MeanServiceSec: burst / 1e9,
	}
}

func TestEntryPoolServesAndCompletes(t *testing.T) {
	k, fac := newRig(t)
	dep := echoDeployment(k, 2e6) // 2 ms per request
	gen := NewLoadGen(k, fac, dep)
	req := gen.InjectRequest()
	k.Eng.Run()

	if !req.Finished() {
		t.Fatal("request did not complete")
	}
	if req.ResponseTime() < 2*sim.Millisecond {
		t.Fatalf("response time %v below service time", req.ResponseTime())
	}
	if req.Cont == nil || req.Cont.EnergyJ() <= 0 {
		t.Fatal("no container energy attributed")
	}
	if gen.InFlight() != 0 {
		t.Fatalf("in flight = %d", gen.InFlight())
	}
}

func TestWorkerUnbindsBetweenRequests(t *testing.T) {
	k, fac := newRig(t)
	dep := echoDeployment(k, 1e6)
	gen := NewLoadGen(k, fac, dep)
	gen.InjectRequest()
	k.Eng.Run()
	for _, task := range k.Tasks() {
		if task.Name == "echo" && task.Ctx != nil {
			t.Fatal("worker still bound after request completion")
		}
	}
}

func TestClosedLoopKeepsClientsOutstanding(t *testing.T) {
	k, fac := newRig(t)
	dep := echoDeployment(k, 5e6)
	gen := NewLoadGen(k, fac, dep)
	gen.RunClosedLoop(6, 200*sim.Millisecond)
	k.Eng.RunUntil(100 * sim.Millisecond)
	if got := gen.InFlight(); got != 6 {
		t.Fatalf("in flight = %d, want 6", got)
	}
	k.Eng.Run()
	// 4 cores × 200 ms / 5 ms ≈ 160 completions possible; with 6 clients
	// the server is saturated.
	if n := len(gen.Completed()); n < 120 {
		t.Fatalf("completed %d, want ≥120", n)
	}
}

func TestOpenLoopApproximatesRate(t *testing.T) {
	k, fac := newRig(t)
	dep := echoDeployment(k, 1e6)
	gen := NewLoadGen(k, fac, dep)
	rng := sim.NewRand(3)
	gen.RunOpenLoop(200, 5*sim.Second, rng)
	k.Eng.Run()
	got := gen.Throughput(0, 5*sim.Second)
	if math.Abs(got-200)/200 > 0.1 {
		t.Fatalf("throughput %.1f req/s, want ≈200", got)
	}
}

func TestAuxWorkerRoundTrip(t *testing.T) {
	k, fac := newRig(t)
	_ = fac
	a, b := kernel.NewConn()
	NewAuxWorker(k, "db", b, func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op {
		n := payload.(int)
		return []kernel.Op{
			kernel.OpCompute{BaseCycles: float64(n), Act: cpu.Activity{IPC: 1}},
			kernel.OpSend{End: b, Bytes: 64, Payload: n * 2},
		}
	})
	var got any
	k.Spawn("client", kernel.Script(
		kernel.OpSend{End: a, Bytes: 64, Payload: 1000},
		kernel.OpRecv{End: a},
		kernel.OpCall{Fn: func(k *kernel.Kernel, t *kernel.Task) { got = t.LastRecv }},
	), nil)
	k.Eng.Run()
	if got != 2000 {
		t.Fatalf("aux reply payload = %v, want 2000", got)
	}
}

// TestLoadGenStop checks that an open loop stops injecting at its horizon.
func TestLoadGenStop(t *testing.T) {
	k, fac := newRig(t)
	dep := echoDeployment(k, 1e6)
	gen := NewLoadGen(k, fac, dep)
	gen.RunOpenLoop(1000, 100*sim.Millisecond, sim.NewRand(1))
	k.Eng.RunUntil(100 * sim.Millisecond)
	before := len(gen.Completed()) + gen.InFlight()
	if before == 0 {
		t.Fatal("no request injected before the horizon")
	}
	k.Eng.RunUntil(500 * sim.Millisecond)
	after := len(gen.Completed()) + gen.InFlight()
	if after > before {
		t.Fatalf("injections continued past the horizon: %d -> %d", before, after)
	}
}

func TestInjectPreparedExtraDone(t *testing.T) {
	k, fac := newRig(t)
	dep := echoDeployment(k, 1e6)
	gen := NewLoadGen(k, fac, dep)
	called := false
	gen.InjectPrepared(&Request{Type: "echo"}, func(r *Request) { called = true })
	k.Eng.Run()
	if !called {
		t.Fatal("extraDone not invoked")
	}
}
