package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/kernel"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
)

// The traced run observes the program only through seams it already
// exposes: kernel.Monitor, power.Meter with power.SinceReader,
// stream.Sink and durable.FS. Each wrapper forwards every call unchanged
// and records its count and duration in the tracer.

// monitorWrap is installed as Kernel.Monitor and delegates every hook to
// the facility's On* methods.
type monitorWrap struct {
	inner kernel.Monitor
	tr    *tracer
}

func (m *monitorWrap) OnInterrupt(c *cpu.Core, t *kernel.Task) {
	s := time.Now()
	m.inner.OnInterrupt(c, t)
	m.tr.hook(hookInterrupt, time.Since(s))
}

func (m *monitorWrap) OnSwitch(c *cpu.Core, prev, next *kernel.Task) {
	s := time.Now()
	m.inner.OnSwitch(c, prev, next)
	m.tr.hook(hookSwitch, time.Since(s))
}

func (m *monitorWrap) OnBind(t *kernel.Task, ctx kernel.Context) {
	s := time.Now()
	m.inner.OnBind(t, ctx)
	m.tr.hook(hookBind, time.Since(s))
}

func (m *monitorWrap) OnFork(parent, child *kernel.Task) {
	s := time.Now()
	m.inner.OnFork(parent, child)
	m.tr.hook(hookFork, time.Since(s))
}

func (m *monitorWrap) OnExit(t *kernel.Task) {
	s := time.Now()
	m.inner.OnExit(t)
	m.tr.hook(hookExit, time.Since(s))
}

func (m *monitorWrap) OnIO(t *kernel.Task, dev kernel.DeviceKind, bytes int64, busy sim.Time, watts float64) {
	s := time.Now()
	m.inner.OnIO(t, dev, bytes, busy, watts)
	m.tr.hook(hookIO, time.Since(s))
}

func (m *monitorWrap) OnTaskStart(t *kernel.Task) {
	s := time.Now()
	m.inner.OnTaskStart(t)
	m.tr.hook(hookTaskStart, time.Since(s))
}

// meterWrap times every read of a meter. It implements power.SinceReader
// so consumers keep the incremental read path the wrapped meter offers.
type meterWrap struct {
	inner power.Meter
	since power.SinceReader
	tr    *tracer
}

// wrapMeter wraps m, which must implement power.SinceReader: a wrapper
// without it would silently move consumers onto the full-read path.
func wrapMeter(m power.Meter, tr *tracer) (*meterWrap, error) {
	sr, ok := m.(power.SinceReader)
	if !ok {
		return nil, fmt.Errorf("meter %s does not implement power.SinceReader", m.Name())
	}
	return &meterWrap{inner: m, since: sr, tr: tr}, nil
}

func (m *meterWrap) Name() string       { return m.inner.Name() }
func (m *meterWrap) Interval() sim.Time { return m.inner.Interval() }
func (m *meterWrap) Delay() sim.Time    { return m.inner.Delay() }
func (m *meterWrap) Scope() power.Scope { return m.inner.Scope() }
func (m *meterWrap) IdleW() float64     { return m.inner.IdleW() }

func (m *meterWrap) Read(now sim.Time) []power.Sample {
	s := time.Now()
	out := m.inner.Read(now)
	m.tr.meter(time.Since(s), len(out))
	return out
}

func (m *meterWrap) ReadSince(now sim.Time, skip int) []power.Sample {
	s := time.Now()
	out := m.since.ReadSince(now, skip)
	m.tr.meter(time.Since(s), len(out))
	return out
}

// sinkWrap times the engine's sink: the store on stream-durable, the
// hasher on stream-dense.
type sinkWrap struct {
	inner stream.Sink
	tr    *tracer
}

func (s *sinkWrap) OnRecord(r stream.Record) {
	t := time.Now()
	s.inner.OnRecord(r)
	s.tr.cur.sink.add(time.Since(t))
}

// fsWrap times the store's filesystem calls: writes and syncs of WAL
// segments, and every step of a checkpoint's atomic write (temp-file
// create, write, sync and close, then the rename and directory sync).
// Reads, truncation and listing happen only while a store opens and are
// timed there, as a whole.
type fsWrap struct {
	inner durable.FS
	tr    *tracer
}

func isWAL(name string) bool { return strings.HasPrefix(filepath.Base(name), "wal-") }

func (f *fsWrap) Create(name string) (durable.File, error) {
	s := time.Now()
	fl, err := f.inner.Create(name)
	d := time.Since(s)
	wal := isWAL(name)
	if !wal {
		f.tr.inCkpt = true
		f.tr.cur.ckpt.add(d)
	}
	if err != nil {
		return nil, err
	}
	return &fileWrap{inner: fl, wal: wal, tr: f.tr}, nil
}

func (f *fsWrap) OpenAppend(name string) (durable.File, error) {
	fl, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &fileWrap{inner: fl, wal: isWAL(name), tr: f.tr}, nil
}

func (f *fsWrap) ReadFile(name string) ([]byte, error)   { return f.inner.ReadFile(name) }
func (f *fsWrap) Remove(name string) error               { return f.inner.Remove(name) }
func (f *fsWrap) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }
func (f *fsWrap) ReadDir(dir string) ([]string, error)   { return f.inner.ReadDir(dir) }
func (f *fsWrap) MkdirAll(dir string) error              { return f.inner.MkdirAll(dir) }

func (f *fsWrap) Rename(oldname, newname string) error {
	s := time.Now()
	err := f.inner.Rename(oldname, newname)
	f.tr.cur.ckpt.add(time.Since(s))
	return err
}

func (f *fsWrap) SyncDir(dir string) error {
	s := time.Now()
	err := f.inner.SyncDir(dir)
	d := time.Since(s)
	if f.tr.inCkpt {
		f.tr.cur.ckpt.add(d)
		f.tr.cur.ckptsPersisted++
		f.tr.inCkpt = false
	} else {
		f.tr.cur.walSync.add(d) // a new WAL segment's directory entry
	}
	return err
}

type fileWrap struct {
	inner durable.File
	wal   bool
	tr    *tracer
}

func (w *fileWrap) Write(p []byte) (int, error) {
	s := time.Now()
	n, err := w.inner.Write(p)
	d := time.Since(s)
	if w.wal {
		w.tr.cur.walWrite.add(d)
		w.tr.cur.walBytes += int64(n)
	} else {
		w.tr.cur.ckpt.add(d)
		w.tr.cur.ckptBytes += int64(n)
	}
	return n, err
}

func (w *fileWrap) Sync() error {
	s := time.Now()
	err := w.inner.Sync()
	d := time.Since(s)
	if w.wal {
		w.tr.cur.walSync.add(d)
	} else {
		w.tr.cur.ckpt.add(d)
	}
	return err
}

func (w *fileWrap) Close() error {
	s := time.Now()
	err := w.inner.Close()
	if !w.wal {
		w.tr.cur.ckpt.add(time.Since(s))
	}
	return err
}

var (
	_ kernel.Monitor    = (*monitorWrap)(nil)
	_ power.Meter       = (*meterWrap)(nil)
	_ power.SinceReader = (*meterWrap)(nil)
	_ stream.Sink       = (*sinkWrap)(nil)
	_ durable.FS        = (*fsWrap)(nil)
)
