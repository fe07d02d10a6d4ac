package faults

import (
	"math"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

// KernelSurface is the kernel-side injection surface: counter wraparound,
// lost overflow interrupts, and socket-tag loss. It implements
// kernel.FaultSurface without faults importing kernel (the interface is
// satisfied structurally with cpu/sim types only).
//
// Decision streams are indexed by per-site call counters. The simulation is
// single-threaded per job and kernel call order is itself deterministic, so
// the counters — and therefore every decision — replay identically.
type KernelSurface struct {
	plan *Plan
	cfg  CounterFaults
	sock SocketFaults

	irqSeed    uint64
	injectSeed uint64
	sendSeed   uint64

	irqCalls    map[int]uint64 // per-core OnInterrupt deliveries seen
	injectCalls uint64
	sendCalls   uint64
}

func newKernelSurface(p *Plan) *KernelSurface {
	s := &KernelSurface{plan: p, irqCalls: make(map[int]uint64)}
	if p.Counter != nil {
		s.cfg = *p.Counter
	}
	if p.Socket != nil {
		s.sock = *p.Socket
	}
	s.irqSeed = p.siteSeed("counter/irq")
	s.injectSeed = p.siteSeed("socket/inject")
	s.sendSeed = p.siteSeed("socket/send")
	return s
}

// WrapModulus reports the wraparound modulus (0 disables unwrapping).
func (s *KernelSurface) WrapModulus() float64 { return s.cfg.WrapEvery }

// WrapCounters reduces the raw cumulative counters modulo the wrap
// modulus, emulating a narrow MSR energy/event register.
func (s *KernelSurface) WrapCounters(coreID int, raw cpu.Counters) cpu.Counters {
	w := s.cfg.WrapEvery
	if w <= 0 {
		return raw
	}
	return cpu.Counters{
		Cycles:       math.Mod(raw.Cycles, w),
		Instructions: math.Mod(raw.Instructions, w),
		Float:        math.Mod(raw.Float, w),
		Cache:        math.Mod(raw.Cache, w),
		Mem:          math.Mod(raw.Mem, w),
	}
}

// DropInterrupt reports whether this overflow-interrupt delivery is lost.
func (s *KernelSurface) DropInterrupt(coreID int, now sim.Time) bool {
	i := s.irqCalls[coreID]
	s.irqCalls[coreID] = i + 1
	if s.cfg.LostInterruptP <= 0 {
		return false
	}
	seed := s.irqSeed ^ mix64(uint64(coreID)+0x9e3779b97f4a7c15)
	if unit(seed, i) < s.cfg.LostInterruptP {
		s.plan.emit(now, "counter", "lost-interrupt", "")
		return true
	}
	return false
}

// DropInjectTag reports whether an externally injected segment loses its
// container tag at the listener boundary.
func (s *KernelSurface) DropInjectTag(now sim.Time) bool {
	i := s.injectCalls
	s.injectCalls++
	if s.sock.InjectTagLossP <= 0 {
		return false
	}
	if unit(s.injectSeed, i) < s.sock.InjectTagLossP {
		s.plan.emit(now, "socket", "tag-loss", "inject")
		return true
	}
	return false
}

// DropSendTag reports whether an in-flight send loses its container tag.
func (s *KernelSurface) DropSendTag(now sim.Time) bool {
	i := s.sendCalls
	s.sendCalls++
	if s.sock.SendTagLossP <= 0 {
		return false
	}
	if unit(s.sendSeed, i) < s.sock.SendTagLossP {
		s.plan.emit(now, "socket", "tag-loss", "send")
		return true
	}
	return false
}
