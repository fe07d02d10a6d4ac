package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"

	"powercontainers/internal/sim"
)

// Kind distinguishes record types in the stream.
type Kind int

const (
	// KindContainer is a per-container attribution delta for one tick.
	KindContainer Kind = iota
	// KindSystem is the per-tick system summary record, emitted after
	// the tick's container, service and tenant records.
	KindSystem
	// KindService is a per-service roll-up delta for one tick, emitted
	// only when the source facility has a hierarchy attached.
	KindService
	// KindTenant is a per-tenant roll-up delta for one tick, emitted
	// only when the source facility has a hierarchy attached.
	KindTenant
)

// Record is one element of the engine's output stream. Container records
// report the energy attributed to one container during the tick (emitted
// only for containers with activity, plus a final Done record at
// release); service and tenant records report the hierarchy roll-up
// deltas over the same tick (hierarchy mode only); the system record
// summarizes the tick.
type Record struct {
	Tick int
	T    sim.Time
	Kind Kind

	// Container fields (service/tenant records reuse ID, Label, Client
	// and the power/energy trio: a service's Label is its qualified
	// "tenant/service" name with Client naming the tenant; a tenant
	// record's Label is the tenant name).
	ID         int
	Label      string
	Client     string
	PowerW     float64 // mean attributed power over the tick
	EnergyJ    float64 // energy attributed during the tick
	CumEnergyJ float64 // cumulative (container: its total; system: ledger)
	Done       bool    // final record: container released with no refs

	// System fields.
	AttributedW float64 // all-container attributed power over the tick
	ModeledW    float64 // mean modeled active power over the whole tick
	MeasuredW   float64 // mean active power of samples arrived this tick
	Samples     int     // meter samples arrived this tick
	FitN        int     // drift-window pairs retained
	DriftErr    float64 // in-window error of the drift refit
}

// formatFloat renders a float64 in the shortest representation that
// parses back to the same bits — the canonical float encoding of the
// record stream, so equal streams imply bit-equal values.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// AppendRecord appends the record's canonical single-line encoding
// (newline-terminated) to dst. The encoding is the unit of stream
// equality: two runs whose encoded streams are byte-identical attributed
// bit-identically.
func AppendRecord(dst []byte, r Record) []byte {
	switch r.Kind {
	case KindContainer:
		dst = append(dst, 'c')
		dst = appendInt(dst, int64(r.Tick))
		dst = appendInt(dst, int64(r.T))
		dst = appendInt(dst, int64(r.ID))
		dst = append(dst, ',')
		dst = strconv.AppendQuote(dst, r.Label)
		dst = append(dst, ',')
		dst = strconv.AppendQuote(dst, r.Client)
		dst = appendFloat(dst, r.PowerW)
		dst = appendFloat(dst, r.EnergyJ)
		dst = appendFloat(dst, r.CumEnergyJ)
		dst = append(dst, ',')
		if r.Done {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	case KindService:
		dst = append(dst, 'v')
		dst = appendInt(dst, int64(r.Tick))
		dst = appendInt(dst, int64(r.T))
		dst = appendInt(dst, int64(r.ID))
		dst = append(dst, ',')
		dst = strconv.AppendQuote(dst, r.Label)
		dst = append(dst, ',')
		dst = strconv.AppendQuote(dst, r.Client)
		dst = appendFloat(dst, r.PowerW)
		dst = appendFloat(dst, r.EnergyJ)
		dst = appendFloat(dst, r.CumEnergyJ)
	case KindTenant:
		dst = append(dst, 't')
		dst = appendInt(dst, int64(r.Tick))
		dst = appendInt(dst, int64(r.T))
		dst = appendInt(dst, int64(r.ID))
		dst = append(dst, ',')
		dst = strconv.AppendQuote(dst, r.Label)
		dst = appendFloat(dst, r.PowerW)
		dst = appendFloat(dst, r.EnergyJ)
		dst = appendFloat(dst, r.CumEnergyJ)
	case KindSystem:
		dst = append(dst, 's')
		dst = appendInt(dst, int64(r.Tick))
		dst = appendInt(dst, int64(r.T))
		dst = appendFloat(dst, r.AttributedW)
		dst = appendFloat(dst, r.ModeledW)
		dst = appendFloat(dst, r.MeasuredW)
		dst = appendInt(dst, int64(r.Samples))
		dst = appendFloat(dst, r.CumEnergyJ)
		dst = appendInt(dst, int64(r.FitN))
		dst = appendFloat(dst, r.DriftErr)
	default:
		dst = append(dst, '?')
	}
	return append(dst, '\n')
}

func appendInt(dst []byte, v int64) []byte {
	dst = append(dst, ',')
	return strconv.AppendInt(dst, v, 10)
}

func appendFloat(dst []byte, v float64) []byte {
	dst = append(dst, ',')
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// Hasher incrementally hashes a record stream (SHA-256 over the canonical
// encodings) without retaining it — the bounded-memory way to compare
// streams, used by the checkpoint-replay tests.
type Hasher struct {
	h       hash.Hash
	scratch []byte
	n       int64
}

// NewHasher returns an empty stream hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// OnRecord implements Sink.
func (h *Hasher) OnRecord(r Record) {
	h.scratch = AppendRecord(h.scratch[:0], r)
	h.h.Write(h.scratch)
	h.n++
}

// Sum returns the hex SHA-256 of the records hashed so far.
func (h *Hasher) Sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

// Count returns how many records were hashed.
func (h *Hasher) Count() int64 { return h.n }

// Collector is a Sink that retains every record.
type Collector struct {
	Records []Record
}

// OnRecord implements Sink.
func (c *Collector) OnRecord(r Record) { c.Records = append(c.Records, r) }

// Encode returns the canonical encoding of the collected stream.
func (c *Collector) Encode() []byte {
	var out []byte
	for _, r := range c.Records {
		out = AppendRecord(out, r)
	}
	return out
}

// HashRecords returns the hex SHA-256 of the records' canonical stream
// encoding.
func HashRecords(recs []Record) string {
	h := NewHasher()
	for _, r := range recs {
		h.OnRecord(r)
	}
	return h.Sum()
}

// Tee fans a record out to multiple sinks in order.
type Tee []Sink

// OnRecord implements Sink.
func (t Tee) OnRecord(r Record) {
	for _, s := range t {
		if s != nil {
			s.OnRecord(r)
		}
	}
}
