package cluster

import (
	"fmt"
	"sort"

	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// ContainerTag is the cross-machine request context of §3.4: when a request
// message crosses a machine boundary the dispatcher tags it with the
// container identifier and control policy settings; the response message
// comes back tagged with cumulative runtime, energy usage and most recent
// power, so the dispatcher keeps comprehensive per-request accounting for
// work executed elsewhere.
type ContainerTag struct {
	// RequestID is the dispatcher-global container identifier.
	RequestID uint64
	// App is the owning application.
	App string
	// PowerTargetW is the per-request power control policy the executing
	// machine must honour (0 = none).
	PowerTargetW float64

	// Response-path fields, filled by the executing machine.
	Machine    string
	CPUTime    sim.Time
	EnergyJ    float64
	LastPowerW float64
}

// LedgerEntry is the dispatcher-side view of one request's containers
// across the cluster.
type LedgerEntry struct {
	Tag      ContainerTag
	Arrive   sim.Time
	Done     sim.Time
	Finished bool
	// Dropped marks a request no node could take; Finished and Dropped
	// are mutually exclusive.
	Dropped bool
}

// ResponseTime returns the request's cluster residence time.
func (e *LedgerEntry) ResponseTime() sim.Time {
	if !e.Finished {
		return 0
	}
	return e.Done - e.Arrive
}

// AuditSink observes ledger activity for invariant checking
// (internal/audit). A nil sink — the default — disables auditing.
type AuditSink interface {
	// OnLedgerOpen fires when an outbound request is registered.
	OnLedgerOpen(tag ContainerTag, now sim.Time)
	// OnLedgerClose fires when a response tag folds into the ledger;
	// alreadyFinished flags a double close of the same request.
	OnLedgerClose(tag ContainerTag, alreadyFinished bool, now sim.Time)
	// OnLedgerDrop fires when the dispatcher gives up on a request;
	// alreadyFinished flags a drop after the request completed.
	OnLedgerDrop(tag ContainerTag, alreadyFinished bool, now sim.Time)
}

// Ledger aggregates cross-machine request accounting at the dispatcher.
type Ledger struct {
	// Audit observes open/close activity; nil disables.
	Audit AuditSink

	entries map[uint64]*LedgerEntry
	nextID  uint64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{entries: map[uint64]*LedgerEntry{}}
}

// Open registers a new outbound request and returns its tag.
func (l *Ledger) Open(app string, powerTargetW float64, now sim.Time) ContainerTag {
	l.nextID++
	tag := ContainerTag{RequestID: l.nextID, App: app, PowerTargetW: powerTargetW}
	l.entries[tag.RequestID] = &LedgerEntry{Tag: tag, Arrive: now}
	if l.Audit != nil {
		l.Audit.OnLedgerOpen(tag, now)
	}
	return tag
}

// Close records a response tag, folding the executing machine's container
// statistics into the dispatcher-side entry.
func (l *Ledger) Close(tag ContainerTag, now sim.Time) error {
	e, ok := l.entries[tag.RequestID]
	if !ok {
		return fmt.Errorf("cluster: response for unknown request %d", tag.RequestID)
	}
	if l.Audit != nil {
		l.Audit.OnLedgerClose(tag, e.Finished, now)
	}
	e.Tag.Machine = tag.Machine
	e.Tag.CPUTime = tag.CPUTime
	e.Tag.EnergyJ = tag.EnergyJ
	e.Tag.LastPowerW = tag.LastPowerW
	e.Done = now
	e.Finished = true
	return nil
}

// Drop marks a request as explicitly given up because no node could take
// it. Dropped entries keep the ledger's accounting identity (opened =
// finished + dropped + in flight) intact.
func (l *Ledger) Drop(id uint64, now sim.Time) error {
	e, ok := l.entries[id]
	if !ok {
		return fmt.Errorf("cluster: drop of unknown request %d", id)
	}
	if l.Audit != nil {
		l.Audit.OnLedgerDrop(e.Tag, e.Finished, now)
	}
	e.Dropped = true
	e.Done = now
	return nil
}

// Counts returns the ledger's accounting totals: requests opened, finished
// and dropped. Opened − finished − dropped is the dispatcher's in-flight
// population.
func (l *Ledger) Counts() (opened, finished, dropped int) {
	for _, e := range l.entries {
		opened++
		if e.Finished {
			finished++
		}
		if e.Dropped {
			dropped++
		}
	}
	return
}

// Entries returns every ledger entry in request-id order.
func (l *Ledger) Entries() []*LedgerEntry {
	var out []*LedgerEntry
	for _, e := range l.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag.RequestID < out[j].Tag.RequestID })
	return out
}

// Entry returns a request's ledger entry.
func (l *Ledger) Entry(id uint64) (*LedgerEntry, bool) {
	e, ok := l.entries[id]
	return e, ok
}

// Finished returns all finished entries in request-id order.
func (l *Ledger) Finished() []*LedgerEntry {
	var out []*LedgerEntry
	for _, e := range l.entries {
		if e.Finished {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag.RequestID < out[j].Tag.RequestID })
	return out
}

// TotalEnergyJ sums attributed energy over finished entries, optionally per
// app ("" = all) and per machine ("" = all).
func (l *Ledger) TotalEnergyJ(app, machine string) float64 {
	var sum float64
	for _, e := range l.entries {
		if !e.Finished {
			continue
		}
		if app != "" && e.Tag.App != app {
			continue
		}
		if machine != "" && e.Tag.Machine != machine {
			continue
		}
		sum += e.Tag.EnergyJ
	}
	return sum
}

// responseTag builds the response-path tag from a finished request's
// node-local container.
func responseTag(tag ContainerTag, machine string, req *server.Request) ContainerTag {
	if req.Cont != nil {
		tag.CPUTime = req.Cont.CPUTime
		tag.EnergyJ = req.Cont.EnergyJ()
		tag.LastPowerW = req.Cont.LastPowerW
	}
	tag.Machine = machine
	return tag
}
