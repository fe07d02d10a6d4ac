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

// The arithmetic below works in place through pointers: the facility runs
// it on every sample, and vectors passed and returned by value moved
// through the stack each time.

// Sub subtracts o from c field by field; applied to a later sample, it
// leaves the events that occurred since the earlier one.
func (c *Counters) Sub(o *Counters) {
	c.Cycles -= o.Cycles
	c.Instructions -= o.Instructions
	c.Float -= o.Float
	c.Cache -= o.Cache
	c.Mem -= o.Mem
}

// Add adds o to c field by field.
func (c *Counters) Add(o *Counters) {
	c.Cycles += o.Cycles
	c.Instructions += o.Instructions
	c.Float += o.Float
	c.Cache += o.Cache
	c.Mem += o.Mem
}

// Accrue adds the events of executing the given number of non-halt cycles
// under activity a: the cycles themselves and each event at its
// per-cycle rate.
func (c *Counters) Accrue(cycles float64, a *Activity) {
	c.Cycles += cycles
	c.Instructions += cycles * a.IPC
	c.Float += cycles * a.FLOPC
	c.Cache += cycles * a.LLCPC
	c.Mem += cycles * a.MemPC
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
func (c *Counters) ClampNonNegative() {
	c.Cycles = clampNonNeg(c.Cycles)
	c.Instructions = clampNonNeg(c.Instructions)
	c.Float = clampNonNeg(c.Float)
	c.Cache = clampNonNeg(c.Cache)
	c.Mem = clampNonNeg(c.Mem)
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
