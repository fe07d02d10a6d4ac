package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"powercontainers/internal/sim"
)

// CheckpointVersion identifies the checkpoint encoding. Version 2 added
// the hierarchy roll-up cursors; version 3 dropped the meter, attribution
// and modeled-power histories and the per-container CPU cursor, none of
// which the engine reads; version 4 replaced the consumer state with its
// SHA-256, since recovery only compares it.
const CheckpointVersion = 4

// Checkpoint identifies the engine's consumer state at a tick boundary.
// Nothing is restored from it: the simulation is deterministic, so
// recovery rebuilds an identical machine, replays it quietly to the
// checkpoint time and compares the replayed engine's checkpoint with this
// one (ReplayTo). The position (tick, time, record count) stays in the
// clear, because the durable store splits its WAL at Records; everything
// else is State, the SHA-256 of the state's canonical bytes (see
// Engine.Checkpoint). The verified engine continues with the
// byte-identical record stream an uninterrupted run produces — the
// contract pinned by the checkpoint-replay tests.
type Checkpoint struct {
	Version int      `json:"version"`
	Tick    int      `json:"tick"`
	T       sim.Time `json:"t"`
	Records int64    `json:"records"`
	State   string   `json:"state"` // 64 lowercase hex digits
}

// Checkpoint captures the engine's consumer state at the last completed
// tick. It reads the state in place and never perturbs the stream. The
// digest covers, in this order: the record count and the ledger; the
// meter and container cursors; the live-container cursors (ID, last J) in
// cursor order; the service and tenant roll-up cursors; the drift delay
// and whether it is known; the drift window (model.Window.AppendCanonical:
// plan, samples, eviction counters, Gram accumulators verbatim); the drift
// coefficients, whether the fit holds and its error. Integers take 8
// little-endian bytes, a float64 its IEEE-754 bits the same way, a bool
// one byte, and each variable-length section opens with its length, so
// equal states encode alike and any differing value, −0 included, changes
// the bytes. A non-finite value panics naming its field.
func (e *Engine) Checkpoint() *Checkpoint {
	b := e.stateBuf[:0]
	b = appendWord(b, e.records)
	b = appendBits(b, e.cumJ, "cum_j", -1)
	b = appendWord(b, int64(e.meterSeen))
	b = appendWord(b, int64(e.containersSeen))
	b = appendWord(b, int64(len(e.live)))
	for i, cc := range e.live {
		b = appendWord(b, int64(cc.c.ID))
		b = appendBits(b, cc.lastJ, "live last_j", i)
	}
	b = appendWord(b, int64(len(e.svcLast)))
	for i, v := range e.svcLast {
		b = appendBits(b, v, "svc_last", i)
	}
	b = appendWord(b, int64(len(e.tenLast)))
	for i, v := range e.tenLast {
		b = appendBits(b, v, "ten_last", i)
	}
	b = appendWord(b, int64(e.delay))
	b = appendFlag(b, e.delayKnown)
	b = e.window.AppendCanonical(b)
	d := &e.drift
	for i, v := range [...]float64{d.IdleW, d.Core, d.Ins, d.Float, d.Cache, d.Mem, d.Chip, d.Disk, d.Net} {
		b = appendBits(b, v, driftFields[i], -1)
	}
	b = appendFlag(b, d.IncludesChipShare)
	b = appendFlag(b, e.driftOK)
	b = appendBits(b, e.driftErr, "drift_err", -1)
	e.stateBuf = b
	sum := sha256.Sum256(b)
	return &Checkpoint{
		Version: CheckpointVersion,
		Tick:    e.tick,
		T:       e.Now(),
		Records: e.records,
		State:   hex.EncodeToString(sum[:]),
	}
}

// driftFields names the drift coefficients Checkpoint hashes, in order.
var driftFields = [...]string{"drift.IdleW", "drift.Core", "drift.Ins", "drift.Float", "drift.Cache",
	"drift.Mem", "drift.Chip", "drift.Disk", "drift.Net"}

func appendWord(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendFlag(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendBits appends v's IEEE-754 bits; field and index (−1 for none) name
// it in the panic a non-finite value raises.
func appendBits(dst []byte, v float64, field string, index int) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if index >= 0 {
			field = fmt.Sprintf("%s[%d]", field, index)
		}
		panic(fmt.Sprintf("stream: checkpoint %s is not finite: %v", field, v))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// EncodeCheckpoint serializes a checkpoint as JSON with a fixed field
// order, so equal checkpoints encode to equal bytes.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	out, err := json.Marshal(cp)
	if err != nil {
		// Integers and a string cannot fail to marshal.
		panic(fmt.Sprintf("stream: checkpoint encode: %v", err))
	}
	return out
}

// DecodeCheckpoint parses an encoded checkpoint and validates what the
// bytes alone can show: the version, a non-negative position, no records
// at tick 0 and a well-formed digest. Whether the digest matches is for
// ReplayTo to find out, so a damaged checkpoint is refused with a clear
// error before any replay or, at the latest, when its replay is compared.
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
	if cp.Tick == 0 && cp.Records != 0 {
		return nil, fmt.Errorf("stream: checkpoint at tick 0 claims %d records", cp.Records)
	}
	if !isDigest(cp.State) {
		return nil, fmt.Errorf("stream: checkpoint state %q is not a SHA-256 in lowercase hex", cp.State)
	}
	return &cp, nil
}

// isDigest reports whether s is a SHA-256 in lowercase hex.
func isDigest(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ReplayTo rebuilds a checkpointed engine over a freshly built,
// identically seeded machine: it drives a fresh engine quietly (no sink,
// no observer, no automatic checkpoints) through cp.Tick ticks —
// reproducing the exact pull/flush pattern of the original run, which the
// simulation's float state depends on — and requires the replayed
// engine's checkpoint to equal cp, refusing any divergence in the rebuilt
// machine. The replayed engine is the recovered one: it continues the
// stream exactly where the checkpointed run left off, on the configured
// checkpoint cadence; when cp.Tick is on that cadence, cp is its
// LastCheckpoint.
func ReplayTo(src Sources, cfg Config, cp *Checkpoint) (*Engine, error) {
	e := New(src, cfg)
	if got := sim.Time(cp.Tick) * e.cfg.Tick; got != cp.T {
		return nil, fmt.Errorf("stream: checkpoint time %d does not sit on the configured tick grid (tick %d × %s)", cp.T, cp.Tick, sim.FormatTime(e.cfg.Tick))
	}
	every := e.cfg.CheckpointEvery
	e.cfg.CheckpointEvery = 0
	e.RunTicks(cp.Tick)
	e.cfg.CheckpointEvery = every
	if natural := e.Checkpoint(); *natural != *cp {
		return nil, fmt.Errorf("stream: quiet replay diverged from checkpoint at tick %d (replayed state %s…, checkpoint %s…)",
			cp.Tick, digestPrefix(natural.State), digestPrefix(cp.State))
	}
	if every > 0 && cp.Tick > 0 && cp.Tick%every == 0 {
		e.lastCP = cp
	}
	return e, nil
}

// digestPrefix shortens a digest for an error message.
func digestPrefix(s string) string { return s[:min(len(s), 12)] }
