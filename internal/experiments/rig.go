package experiments

import (
	"powercontainers/internal/model"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// Rig is a workload deployed on an assembled machine, with the load
// generator that drives it: the one place a run is put together. The
// deployment draws on the machine's rng fork 11 and an open-loop drive
// on fork 13. sim.Rand.Fork advances its parent, so fork order is
// output: a caller that forks another stream (a client pool, power
// viruses) keeps that fork's place relative to Deploy and the drive.
type Rig struct {
	m   *Machine
	Gen *server.LoadGen
}

// Deploy deploys w on the machine. Set the generator's hooks (Clients,
// ServiceFor, PowerTargetFor, TraceRequests) before driving it: a closed
// loop injects its first requests at once.
func (m *Machine) Deploy(w workload.Workload) *Rig {
	dep := w.Deploy(m.K, m.Rng.Fork(11))
	return &Rig{m: m, Gen: server.NewLoadGen(m.K, m.Fac, dep)}
}

// Drive drives the deployment at one of the paper's operating points
// until the given time: PeakClients closed-loop clients at peak load,
// Poisson arrivals at half of PeakRate at half load.
func (r *Rig) Drive(l LoadLevel, until sim.Time) {
	if l == PeakLoad {
		r.Gen.RunClosedLoop(PeakClients(r.m.K.Spec), until)
		return
	}
	r.DriveFrac(0.5, until)
}

// DriveFrac drives Poisson arrivals at frac of the deployment's PeakRate
// until the given time.
func (r *Rig) DriveFrac(frac float64, until sim.Time) {
	r.DriveRate(frac*PeakRate(r.m.K.Spec, r.Gen.Dep), until)
}

// DriveRate drives Poisson arrivals at rate requests per second until the
// given time.
func (r *Rig) DriveRate(rate float64, until sim.Time) {
	r.Gen.RunOpenLoop(rate, until, r.m.Rng.Fork(13))
}

// Sources returns the stream engine's inputs on the machine. The engine
// taps the recalibrator's meter at its scope when the machine
// recalibrates, and the on-chip meter at package scope otherwise.
func (m *Machine) Sources() stream.Sources {
	src := stream.Sources{Eng: m.Eng, Fac: m.Fac, Meter: m.Chip, Scope: model.ScopePackage}
	if r := m.Fac.Recalibrator(); r != nil {
		src.Meter, src.Scope = r.Meter, r.Scope
	}
	return src
}
