package stream

import (
	"bytes"
	"encoding/json"
	"fmt"

	"powercontainers/internal/model"
	"powercontainers/internal/sim"
)

// CheckpointVersion identifies the checkpoint encoding. Version 2 added
// the hierarchy roll-up cursors (svc_last/ten_last); version 3 dropped
// the meter, attribution and modeled-power histories and the per-container
// CPU cursor, none of which the engine reads.
const CheckpointVersion = 3

// ContainerState is one live container's cursor in a checkpoint.
type ContainerState struct {
	ID    int     `json:"id"`
	LastJ float64 `json:"last_j"`
}

// Checkpoint is the engine's complete consumer-side state at a tick
// boundary. The simulation itself is not serialized: it is deterministic,
// so a restore rebuilds an identical machine and replays it quietly to
// the checkpoint time (ReplayTo), then swaps in the decoded consumer
// state. Every field round-trips exactly through JSON (float64 encodes as
// shortest-round-trip), so Checkpoint → Encode → Decode → restore →
// continue produces the byte-identical record stream an uninterrupted run
// produces — the contract pinned by the checkpoint-replay tests.
type Checkpoint struct {
	Version int      `json:"version"`
	Tick    int      `json:"tick"`
	T       sim.Time `json:"t"`
	Records int64    `json:"records"`
	CumJ    float64  `json:"cum_j"`

	MeterSeen      int              `json:"meter_seen"`
	ContainersSeen int              `json:"containers_seen"`
	Live           []ContainerState `json:"live"`

	// Hierarchy roll-up cursors, indexed by registration order (absent on
	// flat runs).
	SvcLast []float64 `json:"svc_last,omitempty"`
	TenLast []float64 `json:"ten_last,omitempty"`

	Delay      sim.Time `json:"delay"`
	DelayKnown bool     `json:"delay_known"`
	// The drift refit's window, its fields encoded inline.
	model.WindowState
	Drift    model.Coefficients `json:"drift"`
	DriftOK  bool               `json:"drift_ok"`
	DriftErr float64            `json:"drift_err"`
}

// Checkpoint captures the engine's consumer state at the last completed
// tick. It is a pure read — taking a checkpoint never perturbs the
// stream.
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version:        CheckpointVersion,
		Tick:           e.tick,
		T:              e.Now(),
		Records:        e.records,
		CumJ:           e.cumJ,
		MeterSeen:      e.meterSeen,
		ContainersSeen: e.containersSeen,
		Delay:          e.delay,
		DelayKnown:     e.delayKnown,
		WindowState:    e.window.State(),
		Drift:          e.drift,
		DriftOK:        e.driftOK,
		DriftErr:       e.driftErr,
	}
	for _, cc := range e.live {
		cp.Live = append(cp.Live, ContainerState{ID: cc.c.ID, LastJ: cc.lastJ})
	}
	if len(e.svcLast) > 0 {
		cp.SvcLast = append([]float64(nil), e.svcLast...)
	}
	if len(e.tenLast) > 0 {
		cp.TenLast = append([]float64(nil), e.tenLast...)
	}
	return cp
}

// EncodeCheckpoint serializes a checkpoint. The encoding is deterministic
// (fixed field order, shortest-round-trip floats), so equal states encode
// to equal bytes — which is what lets ReplayTo verify a restore.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	out, err := json.Marshal(cp)
	if err != nil {
		// Checkpoint contains only JSON-safe field types; Marshal cannot
		// fail unless a NaN leaks in, which the fold paths exclude.
		panic(fmt.Sprintf("stream: checkpoint encode: %v", err))
	}
	return out
}

// DecodeCheckpoint parses an encoded checkpoint and validates every
// structural invariant a truncated, bit-flipped, or hand-rolled payload
// can break. Semantic validation against the rebuilt machine (container
// and hierarchy resolution, the drift window) happens later in restore;
// everything checkable from the bytes alone is checked here, so a
// damaged checkpoint is refused with a clear error instead of failing
// deep inside a replay.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("stream: checkpoint decode: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.Tick < 0 || cp.T < 0 {
		return nil, fmt.Errorf("stream: checkpoint at negative tick %d (t=%d)", cp.Tick, cp.T)
	}
	if cp.Records < 0 {
		return nil, fmt.Errorf("stream: checkpoint with negative record count %d", cp.Records)
	}
	if cp.MeterSeen < 0 || cp.ContainersSeen < 0 {
		return nil, fmt.Errorf("stream: checkpoint with negative cursors (meter %d, containers %d)", cp.MeterSeen, cp.ContainersSeen)
	}
	if len(cp.Live) > cp.ContainersSeen {
		return nil, fmt.Errorf("stream: checkpoint holds %d live containers but saw only %d", len(cp.Live), cp.ContainersSeen)
	}
	if cp.Evictions < 0 || cp.EvTotal < int64(cp.Evictions) {
		return nil, fmt.Errorf("stream: checkpoint eviction counters inconsistent (%d since rebuild, %d total)", cp.Evictions, cp.EvTotal)
	}
	if badFloat(cp.CumJ) || badFloat(cp.DriftErr) {
		return nil, fmt.Errorf("stream: checkpoint carries non-finite accumulators")
	}
	if cp.Tick == 0 && (cp.Records != 0 || len(cp.Live) != 0) {
		return nil, fmt.Errorf("stream: checkpoint at tick 0 claims %d records", cp.Records)
	}
	return &cp, nil
}

// badFloat reports a value JSON should never have produced for an
// accumulator: json.Unmarshal rejects NaN/Inf literals, but a checkpoint
// assembled by other means must not smuggle them in.
func badFloat(v float64) bool { return v != v || v > 1e308 || v < -1e308 } //pclint:allow floatsafe v != v is the NaN test; exactness is the point

// restore overwrites the engine's consumer state with the checkpoint's.
// The engine must already sit at the checkpoint tick (ReplayTo arranges
// this); restore resolves live container IDs against the facility.
func (e *Engine) restore(cp *Checkpoint) error {
	if e.tick != cp.Tick {
		return fmt.Errorf("stream: restore at tick %d, checkpoint at %d", e.tick, cp.Tick)
	}
	// Resolve live container IDs by merge scan: both the checkpoint's
	// live list and the facility's container list are in creation order.
	live := make([]*contCursor, 0, len(cp.Live))
	if cp.ContainersSeen > e.src.Fac.NumContainers() {
		return fmt.Errorf("stream: checkpoint saw %d containers, facility has %d", cp.ContainersSeen, e.src.Fac.NumContainers())
	}
	i := 0
	for _, st := range cp.Live {
		for i < cp.ContainersSeen && e.src.Fac.ContainerAt(i).ID != st.ID {
			i++
		}
		if i == cp.ContainersSeen {
			return fmt.Errorf("stream: checkpoint live container %d not found in facility", st.ID)
		}
		live = append(live, &contCursor{c: e.src.Fac.ContainerAt(i), lastJ: st.LastJ})
		i++
	}

	// Hierarchy cursors resolve against the rebuilt facility's hierarchy:
	// the checkpointed run cannot have seen more services or tenants than
	// the replayed machine has registered by now.
	h := e.src.Fac.Hierarchy()
	if len(cp.SvcLast) > 0 || len(cp.TenLast) > 0 {
		if h == nil {
			return fmt.Errorf("stream: checkpoint carries hierarchy cursors but the facility has no hierarchy")
		}
		if len(cp.SvcLast) > h.NumServices() || len(cp.TenLast) > h.NumTenants() {
			return fmt.Errorf("stream: checkpoint saw %d services / %d tenants, hierarchy has %d / %d",
				len(cp.SvcLast), len(cp.TenLast), h.NumServices(), h.NumTenants())
		}
	}
	// The window restores last: it refuses a bad state without changing,
	// so nothing below can fail after it.
	if err := e.window.Restore(cp.WindowState); err != nil {
		return err
	}

	e.records = cp.Records
	e.cumJ = cp.CumJ
	e.meterSeen = cp.MeterSeen
	e.containersSeen = cp.ContainersSeen
	e.live = live
	e.svcLast = append(e.svcLast[:0], cp.SvcLast...)
	e.tenLast = append(e.tenLast[:0], cp.TenLast...)
	e.delay = cp.Delay
	e.delayKnown = cp.DelayKnown
	e.drift = cp.Drift
	e.driftOK = cp.DriftOK
	e.driftErr = cp.DriftErr
	return nil
}

// ReplayTo restores a checkpoint into a fresh engine over a freshly built,
// identically seeded machine: it drives the engine quietly (no sink, no
// observer, no automatic checkpoints) through cp.Tick ticks — reproducing
// the exact pull/flush pattern of the original run, which the
// simulation's float state depends on — verifies that the naturally
// replayed consumer state encodes byte-identically to the checkpoint
// (catching any state the checkpoint failed to capture, or any divergence
// in the rebuilt machine), and then installs the decoded checkpoint
// state. The returned engine continues the stream exactly where the
// checkpointed run left off, on the configured checkpoint cadence; when
// cp.Tick is on that cadence, cp is its LastCheckpoint.
func ReplayTo(src Sources, cfg Config, cp *Checkpoint) (*Engine, error) {
	e := New(src, cfg)
	if got := sim.Time(cp.Tick) * e.cfg.Tick; got != cp.T {
		return nil, fmt.Errorf("stream: checkpoint time %d does not sit on the configured tick grid (tick %d × %s)", cp.T, cp.Tick, sim.FormatTime(e.cfg.Tick))
	}
	every := e.cfg.CheckpointEvery
	e.cfg.CheckpointEvery = 0
	e.RunTicks(cp.Tick)
	e.cfg.CheckpointEvery = every
	natural := EncodeCheckpoint(e.Checkpoint())
	want := EncodeCheckpoint(cp)
	if !bytes.Equal(natural, want) {
		return nil, fmt.Errorf("stream: quiet replay diverged from checkpoint at tick %d (%d vs %d encoded bytes)", cp.Tick, len(natural), len(want))
	}
	if err := e.restore(cp); err != nil {
		return nil, err
	}
	if every > 0 && cp.Tick > 0 && cp.Tick%every == 0 {
		e.lastCP = cp
	}
	return e, nil
}
