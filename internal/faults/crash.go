package faults

import (
	"fmt"
	"strconv"
	"strings"

	"powercontainers/internal/durable"
)

// CrashPlan schedules one process death at an exact filesystem operation,
// optionally followed by stable-storage damage inflicted while the
// process is down. A plan has a compact text form so the crashmatrix
// experiment, pcstream -crash and tests can name a crash point in one
// string:
//
//	crash:op=sync,match=wal-,index=3,keep=5,at=post;corrupt:file=.seg,off=-1,mask=64
//
// The crash clause picks the Index-th (1-based) operation of kind Op
// whose file name contains Match; Keep is the number of unsynced bytes of
// that file that survive the cut (the torn-write tail); at=post lets the
// operation take effect before dying (default is dying in its place).
// Each corrupt clause edits the last (sorted) surviving file whose path
// contains File: either XOR the byte at Off with Mask, or — with
// trunc=<n> instead — cut the file to n bytes. ParseCrashPlan validates,
// String re-encodes canonically, and ParseCrashPlan(p.String())
// round-trips to an equal plan.
type CrashPlan struct {
	Point       CrashPoint
	Corruptions []Corruption
}

// CrashOps are the operation kinds a CrashPoint can target, matching the
// op clock durable.MemFS keeps.
var CrashOps = []string{"create", "write", "sync", "rename", "remove", "truncate"}

// CrashPoint selects the operation to die at. A zero Op means the plan
// never crashes (corruption-only plans, applied via ApplyCorruptions).
type CrashPoint struct {
	Op    string // one of CrashOps
	Match string // substring the file name must contain ("" matches all)
	Index int    // 1-based count of matching operations
	Keep  int    // unsynced bytes of the target file surviving the cut
	After bool   // die after the op takes effect instead of in its place
}

// Corruption is one piece of stable-storage damage applied while the
// process is down. Exactly one of Mask / Trunc modes is active.
type Corruption struct {
	File  string // substring; the last sorted matching path is hit
	Off   int64  // byte offset; negative counts back from the end
	Mask  byte   // XOR mask (bit-flip mode; 0 selects truncate mode)
	Trunc int64  // truncate-to length, used when Mask == 0
}

// Crash is the panic value a CrashFS dies with — the in-process stand-in
// for kill -9. experiments.DurableStream recovers it by type from an
// attempt it armed with a plan; any other panic value is a real bug and
// must propagate.
type Crash struct {
	Op   string // operation kind that triggered the death
	Name string // file the operation targeted
	Spec string // canonical plan spec, for the crash report
}

func (c Crash) String() string {
	return fmt.Sprintf("crash at %s(%s) [%s]", c.Op, c.Name, c.Spec)
}

func crashOpKnown(op string) bool {
	for _, k := range CrashOps {
		if op == k {
			return true
		}
	}
	return false
}

// ParseCrashPlan parses and validates a crash-plan spec. An empty spec
// yields an inert plan. Accepted plans satisfy: at most one crash clause
// with a known op and index ≥ 1, keep ≥ 0, and every corrupt clause in
// exactly one of bit-flip (mask 1..255) or truncate (trunc ≥ 0) mode.
func ParseCrashPlan(spec string) (*CrashPlan, error) {
	p := &CrashPlan{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	seenCrash := false
	for _, clause := range strings.Split(spec, ";") {
		target, params, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: crash clause %q is not target:params", clause)
		}
		switch target {
		case "crash":
			if seenCrash {
				return nil, fmt.Errorf("faults: duplicate crash clause")
			}
			seenCrash = true
			pt, err := parseCrashClause(params)
			if err != nil {
				return nil, err
			}
			p.Point = pt
		case "corrupt":
			c, err := parseCorruptClause(params)
			if err != nil {
				return nil, err
			}
			p.Corruptions = append(p.Corruptions, c)
		default:
			return nil, fmt.Errorf("faults: unknown crash target %q", target)
		}
	}
	return p, nil
}

// splitParams splits a clause's comma-separated key=value list; an empty
// list yields no params.
func splitParams(params string) []string {
	if params == "" {
		return nil
	}
	return strings.Split(params, ",")
}

func parseCrashClause(params string) (CrashPoint, error) {
	pt := CrashPoint{Index: 1}
	for _, kv := range splitParams(params) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return pt, fmt.Errorf("faults: crash param %q is not key=value", kv)
		}
		switch key {
		case "op":
			if !crashOpKnown(val) {
				return pt, fmt.Errorf("faults: unknown crash op %q", val)
			}
			pt.Op = val
		case "match":
			pt.Match = val
		case "index":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return pt, fmt.Errorf("faults: crash index %q must be ≥ 1", val)
			}
			pt.Index = n
		case "keep":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return pt, fmt.Errorf("faults: crash keep %q must be ≥ 0", val)
			}
			pt.Keep = n
		case "at":
			switch val {
			case "pre":
				pt.After = false
			case "post":
				pt.After = true
			default:
				return pt, fmt.Errorf("faults: crash at=%q must be pre or post", val)
			}
		default:
			return pt, fmt.Errorf("faults: unknown crash param %q", key)
		}
	}
	if pt.Op == "" {
		return pt, fmt.Errorf("faults: crash clause needs op=")
	}
	return pt, nil
}

func parseCorruptClause(params string) (Corruption, error) {
	c := Corruption{}
	sawMask, sawTrunc, sawOff := false, false, false
	for _, kv := range splitParams(params) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("faults: corrupt param %q is not key=value", kv)
		}
		switch key {
		case "file":
			c.File = val
		case "off":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("faults: corrupt off %q: %v", val, err)
			}
			c.Off = n
			sawOff = true
		case "mask":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > 255 {
				return c, fmt.Errorf("faults: corrupt mask %q must be 1..255", val)
			}
			c.Mask = byte(n)
			sawMask = true
		case "trunc":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return c, fmt.Errorf("faults: corrupt trunc %q must be ≥ 0", val)
			}
			c.Trunc = n
			sawTrunc = true
		default:
			return c, fmt.Errorf("faults: unknown corrupt param %q", key)
		}
	}
	if sawMask == sawTrunc {
		return c, fmt.Errorf("faults: corrupt clause needs exactly one of mask= or trunc=")
	}
	if sawTrunc && sawOff {
		return c, fmt.Errorf("faults: corrupt off= only applies to mask mode")
	}
	return c, nil
}

// String re-encodes the plan canonically: crash clause first (zero-valued
// params omitted, index always explicit), then corrupt clauses in input
// order. The canonical form parses back to an equal plan.
func (p *CrashPlan) String() string {
	var clauses []string
	if p.Point.Op != "" {
		ps := []string{"op=" + p.Point.Op}
		if p.Point.Match != "" {
			ps = append(ps, "match="+p.Point.Match)
		}
		ps = append(ps, "index="+strconv.Itoa(p.Point.Index))
		if p.Point.Keep > 0 {
			ps = append(ps, "keep="+strconv.Itoa(p.Point.Keep))
		}
		if p.Point.After {
			ps = append(ps, "at=post")
		}
		clauses = append(clauses, "crash:"+strings.Join(ps, ","))
	}
	for _, c := range p.Corruptions {
		var ps []string
		if c.File != "" {
			ps = append(ps, "file="+c.File)
		}
		if c.Mask != 0 {
			if c.Off != 0 {
				ps = append(ps, "off="+strconv.FormatInt(c.Off, 10))
			}
			ps = append(ps, "mask="+strconv.Itoa(int(c.Mask)))
		} else {
			ps = append(ps, "trunc="+strconv.FormatInt(c.Trunc, 10))
		}
		clauses = append(clauses, "corrupt:"+strings.Join(ps, ","))
	}
	return strings.Join(clauses, ";")
}

// ApplyCorruptions inflicts the plan's corruption clauses on m: for each
// clause, the last sorted path containing File is bit-flipped at Off
// (negative Off counts from the end) or truncated to Trunc bytes. A
// clause matching no file is an error — a corruption test that silently
// corrupts nothing proves nothing.
func (p *CrashPlan) ApplyCorruptions(m *durable.MemFS) error {
	for _, c := range p.Corruptions {
		var hit string
		for _, path := range m.Paths() {
			if strings.Contains(path, c.File) {
				hit = path
			}
		}
		if hit == "" {
			return fmt.Errorf("faults: corrupt clause %q matches no file", c.File)
		}
		if c.Mask != 0 {
			off := c.Off
			if off < 0 {
				off += m.Size(hit)
			}
			if err := m.Corrupt(hit, off, c.Mask); err != nil {
				return err
			}
		} else {
			size := c.Trunc
			if size > m.Size(hit) {
				size = m.Size(hit)
			}
			if err := m.Truncate(hit, size); err != nil {
				return err
			}
		}
	}
	return nil
}

// CrashFS decorates a MemFS with the plan's crash point: when the
// scheduled operation arrives, the filesystem reverts to its post-cut
// state (durable prefixes plus Keep torn bytes of the target file),
// corruption clauses fire, and the goroutine dies with a Crash panic —
// the closest in-process analogue of the kernel killing the daemon
// mid-syscall. A write always lands in the unsynced pool before the cut,
// so Keep alone decides how much of it survives; for the other ops After
// selects dying before or after the effect. Each CrashFS fires at most
// once, so recovery runs on the same filesystem proceed undisturbed.
type CrashFS struct {
	mem  *durable.MemFS
	plan *CrashPlan

	seen  int
	fired bool
}

// NewCrashFS wraps m with plan's crash point. A nil or crash-less plan
// yields a transparent wrapper.
func NewCrashFS(m *durable.MemFS, plan *CrashPlan) *CrashFS {
	return &CrashFS{mem: m, plan: plan}
}

// Fired reports whether the crash point has gone off.
func (c *CrashFS) Fired() bool { return c.fired }

// fire executes the scheduled death for op on name. apply is the op's
// effect; applied reports whether the caller already ran it.
func (c *CrashFS) check(op, name string, applied bool, apply func() error) error {
	if c.plan == nil || c.fired || c.plan.Point.Op != op || !strings.Contains(name, c.plan.Point.Match) {
		if applied {
			return nil
		}
		return apply()
	}
	c.seen++
	if c.seen != c.plan.Point.Index {
		if applied {
			return nil
		}
		return apply()
	}
	c.fired = true
	if c.plan.Point.After && !applied {
		if err := apply(); err != nil {
			return err
		}
	}
	c.mem.Crash(name, c.plan.Point.Keep)
	if err := c.plan.ApplyCorruptions(c.mem); err != nil {
		panic(fmt.Sprintf("faults: crash corruption failed: %v", err))
	}
	panic(Crash{Op: op, Name: name, Spec: c.plan.String()})
}

// crashFile wraps a file handle so writes and syncs hit the op clock.
type crashFile struct {
	c    *CrashFS
	name string
	f    durable.File
}

// Write implements durable.File. The bytes always reach the unsynced
// pool first: a torn write is "the write happened, the cut kept a
// prefix", which Keep expresses directly.
func (w *crashFile) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if err != nil {
		return n, err
	}
	return n, w.c.check("write", w.name, true, nil)
}

// Sync implements durable.File.
func (w *crashFile) Sync() error { return w.c.check("sync", w.name, false, w.f.Sync) }

// Close implements durable.File.
func (w *crashFile) Close() error { return w.f.Close() }

// Create implements durable.FS.
func (c *CrashFS) Create(name string) (durable.File, error) {
	var f durable.File
	err := c.check("create", name, false, func() error {
		var err error
		f, err = c.mem.Create(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &crashFile{c: c, name: name, f: f}, nil
}

// OpenAppend implements durable.FS.
func (c *CrashFS) OpenAppend(name string) (durable.File, error) {
	f, err := c.mem.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{c: c, name: name, f: f}, nil
}

// ReadFile implements durable.FS.
func (c *CrashFS) ReadFile(name string) ([]byte, error) { return c.mem.ReadFile(name) }

// Rename implements durable.FS. The point matches against the
// destination name — plans name the file being replaced — and a pre
// crash dies with the temp still under its old name: the mid-rename
// point.
func (c *CrashFS) Rename(oldname, newname string) error {
	return c.check("rename", newname, false, func() error { return c.mem.Rename(oldname, newname) })
}

// Remove implements durable.FS.
func (c *CrashFS) Remove(name string) error {
	return c.check("remove", name, false, func() error { return c.mem.Remove(name) })
}

// Truncate implements durable.FS.
func (c *CrashFS) Truncate(name string, size int64) error {
	return c.check("truncate", name, false, func() error { return c.mem.Truncate(name, size) })
}

// ReadDir implements durable.FS.
func (c *CrashFS) ReadDir(dir string) ([]string, error) { return c.mem.ReadDir(dir) }

// MkdirAll implements durable.FS.
func (c *CrashFS) MkdirAll(dir string) error { return c.mem.MkdirAll(dir) }

// SyncDir implements durable.FS.
func (c *CrashFS) SyncDir(dir string) error { return c.mem.SyncDir(dir) }

var _ durable.FS = (*CrashFS)(nil)
