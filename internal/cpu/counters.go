package cpu

import "fmt"

// Counters holds cumulative hardware event counts for one core: the five
// events the paper's model consumes (§3.1). Counts are stored as float64
// accumulators internally so that fractional event rates integrate exactly
// over arbitrarily short execution segments; the facility only ever consumes
// deltas and rates, matching how real counters are used.
type Counters struct {
	// Cycles counts non-halt core cycles.
	Cycles float64
	// Instructions counts retired instructions.
	Instructions float64
	// Float counts floating point operations.
	Float float64
	// Cache counts last-level cache references.
	Cache float64
	// Mem counts memory transactions.
	Mem float64
}

// Sub returns the element-wise difference c − o, i.e. the events that
// occurred between two samples.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Cycles:       c.Cycles - o.Cycles,
		Instructions: c.Instructions - o.Instructions,
		Float:        c.Float - o.Float,
		Cache:        c.Cache - o.Cache,
		Mem:          c.Mem - o.Mem,
	}
}

// Add returns the element-wise sum c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Cycles:       c.Cycles + o.Cycles,
		Instructions: c.Instructions + o.Instructions,
		Float:        c.Float + o.Float,
		Cache:        c.Cache + o.Cache,
		Mem:          c.Mem + o.Mem,
	}
}

// Scale returns c with every field multiplied by f.
func (c Counters) Scale(f float64) Counters {
	return Counters{
		Cycles:       c.Cycles * f,
		Instructions: c.Instructions * f,
		Float:        c.Float * f,
		Cache:        c.Cache * f,
		Mem:          c.Mem * f,
	}
}

// ClampNonNegative zeroes any negative field. The facility uses it after
// observer-effect compensation, which can slightly over-subtract when a
// sampling period contained fewer events than the calibrated per-operation
// maintenance cost.
func (c Counters) ClampNonNegative() Counters {
	return Counters{
		Cycles:       clampNonNeg(c.Cycles),
		Instructions: clampNonNeg(c.Instructions),
		Float:        clampNonNeg(c.Float),
		Cache:        clampNonNeg(c.Cache),
		Mem:          clampNonNeg(c.Mem),
	}
}

func clampNonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

func (c Counters) String() string {
	return fmt.Sprintf("cyc=%.0f ins=%.0f flop=%.0f llc=%.0f mem=%.0f",
		c.Cycles, c.Instructions, c.Float, c.Cache, c.Mem)
}

// Activity is a workload's hardware event signature: event rates per
// non-halt core cycle. Together with busy time it fully determines what the
// counters observe and (through the hidden ground-truth model) what power
// the hardware draws.
type Activity struct {
	// IPC is retired instructions per non-halt cycle.
	IPC float64
	// FLOPC is floating point operations per non-halt cycle.
	FLOPC float64
	// LLCPC is last-level cache references per non-halt cycle.
	LLCPC float64
	// MemPC is memory transactions per non-halt cycle.
	MemPC float64
}

// Events returns the counter increments produced by executing the given
// number of non-halt cycles under this activity profile.
func (a Activity) Events(cycles float64) Counters {
	return Counters{
		Cycles:       cycles,
		Instructions: cycles * a.IPC,
		Float:        cycles * a.FLOPC,
		Cache:        cycles * a.LLCPC,
		Mem:          cycles * a.MemPC,
	}
}
