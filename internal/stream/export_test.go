package stream

import (
	"fmt"
	"math"
	"reflect"
	"unsafe"

	"powercontainers/internal/core"
	"powercontainers/internal/linalg"
	"powercontainers/internal/model"
)

// DriftFit returns the windowed online refit over the retained aligned
// pairs, if enough observations have arrived. It answers "what would the
// model look like fit over recent data only" — diverging from the
// facility's coefficients signals model drift.
func (e *Engine) DriftFit() (model.Coefficients, bool) { return e.drift, e.driftOK }

// DriftWindow returns a copy of the retained aligned pairs backing the
// drift refit.
func (e *Engine) DriftWindow() []model.CalSample {
	return append([]model.CalSample(nil), e.window.Samples()...)
}

// StateEdit changes an engine's consumer state in place and returns the
// undo. A nil StateEdit leaves the state as it is.
type StateEdit func(e *Engine) (undo func())

// DigestCase is a pair of engine states whose checkpoints must carry
// different State digests.
type DigestCase struct {
	Name string
	A, B StateEdit
}

// DigestCases lists one case per value Engine.Checkpoint hashes, for
// TestCheckpointDigestCoversState, which runs them on a real engine (this
// package's own tests cannot build one: internal/experiments imports it).
// Most cases compare the state with one value moved by an ulp or a step.
// Two more compare +0 with −0, and the state with one extra zero-valued
// live cursor. The two boundary cases compare states whose hashed values,
// taken as one sequence of 8-byte words, are equal and differ only in
// where one section ends and the next begins: only the length prefixes
// tell them apart.
func DigestCases() []DigestCase {
	cases := []DigestCase{
		{"record count", nil, func(e *Engine) func() { return set(&e.records, e.records+1) }},
		{"ledger", nil, func(e *Engine) func() { return set(&e.cumJ, up(e.cumJ)) }},
		{"meter cursor", nil, func(e *Engine) func() { return set(&e.meterSeen, e.meterSeen+1) }},
		{"container cursor", nil, func(e *Engine) func() { return set(&e.containersSeen, e.containersSeen+1) }},
		{"live cursor ID", nil, func(e *Engine) func() { return set(&e.live[0].c.ID, e.live[0].c.ID+1) }},
		{"live cursor last J", nil, func(e *Engine) func() { return set(&e.live[0].lastJ, up(e.live[0].lastJ)) }},
		{"extra zero-valued live cursor", nil, func(e *Engine) func() {
			return set(&e.live, append(e.live[:len(e.live):len(e.live)], contCursor{c: &core.Container{}}))
		}},
		{"service cursor", nil, func(e *Engine) func() { return set(&e.svcLast[0], up(e.svcLast[0])) }},
		{"tenant cursor", nil, func(e *Engine) func() { return set(&e.tenLast[0], up(e.tenLast[0])) }},
		{"delay", nil, func(e *Engine) func() { return set(&e.delay, e.delay+1) }},
		{"delay known", nil, func(e *Engine) func() { return set(&e.delayKnown, !e.delayKnown) }},
		{"window plan scope", nil, func(e *Engine) func() {
			p := field[model.FitPlan](e.window, "plan")
			return set(&p.Scope, 1-p.Scope)
		}},
		{"window plan chip share", nil, func(e *Engine) func() {
			p := field[model.FitPlan](e.window, "plan")
			return set(&p.IncludeChipShare, !p.IncludeChipShare)
		}},
		{"window plan unset", nil, func(e *Engine) func() { return set(field[*linalg.Gram](e.window, "gram"), nil) }},
		{"window evictions since rebuild", nil, func(e *Engine) func() {
			n := field[int](e.window, "evictions")
			return set(n, *n+1)
		}},
		{"window evictions in total", nil, func(e *Engine) func() {
			n := field[int64](e.window, "evTotal")
			return set(n, *n+1)
		}},
		{"Gram row count", nil, func(e *Engine) func() {
			n := field[int](windowGram(e), "n")
			return set(n, *n+1)
		}},
		{"Gram XᵀX entry", nil, func(e *Engine) func() {
			xtx := *field[[]float64](windowGram(e), "xtx")
			return set(&xtx[1], up(xtx[1]))
		}},
		{"Gram XᵀX last entry", nil, func(e *Engine) func() {
			xtx := *field[[]float64](windowGram(e), "xtx")
			last := len(xtx) - 1
			return set(&xtx[last], up(xtx[last]))
		}},
		{"Gram XᵀY entry", nil, func(e *Engine) func() {
			xty := *field[[]float64](windowGram(e), "xty")
			return set(&xty[0], up(xty[0]))
		}},
		{"drift chip share", nil, func(e *Engine) func() {
			return set(&e.drift.IncludesChipShare, !e.drift.IncludesChipShare)
		}},
		{"drift ok", nil, func(e *Engine) func() { return set(&e.driftOK, !e.driftOK) }},
		{"drift error", nil, func(e *Engine) func() { return set(&e.driftErr, up(e.driftErr)) }},
		{"+0 to −0",
			func(e *Engine) func() { return set(&e.driftErr, 0) },
			func(e *Engine) func() { return set(&e.driftErr, math.Copysign(0, -1)) }},
		// Live cursor (n_svc+2, 1.5) then the service count n_svc, against
		// n_svc+2 service cursors opening with 1.5 and the bits of n_svc.
		{"live/service boundary",
			func(e *Engine) func() {
				c := contCursor{c: &core.Container{ID: len(e.svcLast) + 2}, lastJ: 1.5}
				return set(&e.live, append(e.live[:len(e.live):len(e.live)], c))
			},
			func(e *Engine) func() {
				head := []float64{1.5, math.Float64frombits(uint64(len(e.svcLast)))}
				return set(&e.svcLast, append(head, e.svcLast...))
			}},
		// A service cursor holding the bits of n_ten+1 then the tenant count
		// n_ten, against n_ten+1 tenant cursors opening with the bits of
		// n_ten.
		{"service/tenant boundary",
			func(e *Engine) func() {
				v := math.Float64frombits(uint64(len(e.tenLast) + 1))
				return set(&e.svcLast, append(e.svcLast[:len(e.svcLast):len(e.svcLast)], v))
			},
			func(e *Engine) func() {
				head := []float64{math.Float64frombits(uint64(len(e.tenLast)))}
				return set(&e.tenLast, append(head, e.tenLast...))
			}},
	}
	for i, name := range sampleFields {
		cases = append(cases, DigestCase{"window sample " + name, nil, func(e *Engine) func() {
			p := sampleField(&e.window.Samples()[0], i)
			return set(p, up(*p))
		}})
	}
	for i, name := range [...]string{"IdleW", "Core", "Ins", "Float", "Cache", "Mem", "Chip", "Disk", "Net"} {
		cases = append(cases, DigestCase{"drift " + name, nil, func(e *Engine) func() {
			p := coeffField(&e.drift, i)
			return set(p, up(*p))
		}})
	}
	return cases
}

// NonFiniteCase makes one value Engine.Checkpoint hashes non-finite; the
// panic it raises must name Field.
type NonFiniteCase struct {
	Field string
	Edit  StateEdit
}

// NonFiniteCases covers one value in each encoder: the engine's own, a
// window sample and a Gram accumulator.
func NonFiniteCases() []NonFiniteCase {
	return []NonFiniteCase{
		{"cum_j", func(e *Engine) func() { return set(&e.cumJ, math.NaN()) }},
		{"window sample 0 Weight", func(e *Engine) func() { return set(&e.window.Samples()[0].Weight, math.Inf(1)) }},
		{"Gram xty[0]", func(e *Engine) func() {
			xty := *field[[]float64](windowGram(e), "xty")
			return set(&xty[0], math.NaN())
		}},
	}
}

var sampleFields = [...]string{"M.Core", "M.Ins", "M.Float", "M.Cache", "M.Mem", "M.Chip", "M.Disk", "M.Net",
	"MachineActiveW", "PkgActiveW", "Weight"}

func sampleField(s *model.CalSample, i int) *float64 {
	return [...]*float64{&s.M.Core, &s.M.Ins, &s.M.Float, &s.M.Cache, &s.M.Mem, &s.M.Chip, &s.M.Disk, &s.M.Net,
		&s.MachineActiveW, &s.PkgActiveW, &s.Weight}[i]
}

func coeffField(c *model.Coefficients, i int) *float64 {
	return [...]*float64{&c.IdleW, &c.Core, &c.Ins, &c.Float, &c.Cache, &c.Mem, &c.Chip, &c.Disk, &c.Net}[i]
}

func windowGram(e *Engine) *linalg.Gram { return *field[*linalg.Gram](e.window, "gram") }

// set stores v in *p and returns the undo.
func set[T any](p *T, v T) func() {
	old := *p
	*p = v
	return func() { *p = old }
}

// up returns the next float64 above v.
func up(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

// field returns a pointer to the named field of the struct p points to,
// unexported or not, so an edit can reach state another package owns.
func field[T any](p any, name string) *T {
	f := reflect.ValueOf(p).Elem().FieldByName(name)
	if !f.IsValid() || f.Type() != reflect.TypeFor[T]() {
		panic(fmt.Sprintf("stream: %T has no field %s of type %v", p, name, reflect.TypeFor[T]()))
	}
	return (*T)(unsafe.Pointer(f.UnsafeAddr()))
}
