package kernel

import (
	"powercontainers/internal/sim"
)

// DeviceKind identifies an I/O device class.
type DeviceKind int

const (
	// DeviceDisk is the machine's disk subsystem.
	DeviceDisk DeviceKind = iota
	// DeviceNet is the machine's network interface.
	DeviceNet
)

func (d DeviceKind) String() string {
	if d == DeviceDisk {
		return "disk"
	}
	return "net"
}

// Device is a synchronous FIFO I/O device with fixed bandwidth, per-request
// latency, and a power draw while busy. Requests from concurrent tasks
// serialize; the requesting task blocks until its transfer finishes. Device
// energy is attributed to the requesting task's container via Monitor.OnIO,
// reflecting the paper's statement that the OS identifies the requests
// responsible for I/O operations.
type Device struct {
	Kind        DeviceKind
	BytesPerSec float64
	LatencyNs   sim.Time
	BusyWatts   float64

	freeAt sim.Time
	// inFlight counts reserved transfers whose completion has not fired
	// yet; headStart is the service start of the oldest of them.
	inFlight  int
	headStart sim.Time
}

// NewDisk returns a disk modeled on a 7200 RPM SATA drive.
func NewDisk(busyWatts float64) *Device {
	return &Device{
		Kind:        DeviceDisk,
		BytesPerSec: 120e6,
		LatencyNs:   4 * sim.Millisecond,
		BusyWatts:   busyWatts,
	}
}

// NewNIC returns a gigabit network interface.
func NewNIC(busyWatts float64) *Device {
	return &Device{
		Kind:        DeviceNet,
		BytesPerSec: 118e6,
		LatencyNs:   80 * sim.Microsecond,
		BusyWatts:   busyWatts,
	}
}

// schedule reserves device time for a transfer of the given size starting
// no earlier than now, returning the busy interval [start, done).
func (d *Device) schedule(now sim.Time, bytes int64) (start, done sim.Time) {
	start = now
	if d.freeAt > start {
		start = d.freeAt
	}
	busy := d.LatencyNs + sim.Time(float64(bytes)/d.BytesPerSec*float64(sim.Second))
	done = start + busy
	d.freeAt = done
	if d.inFlight == 0 {
		d.headStart = start
	}
	d.inFlight++
	return start, done
}

// complete retires the oldest in-flight transfer when it finishes at now.
// Service is FIFO and every transfer still queued was reserved while this
// one was pending, so the next one's service started exactly now.
func (d *Device) complete(now sim.Time) {
	d.inFlight--
	d.headStart = now
}

// InFlightStart returns the service start of the oldest transfer that has
// not completed, and false when the device is idle. A completing transfer
// reports its whole busy interval [start, done) to Monitor.OnIO, so this
// is the earliest time a future OnIO can cover.
func (d *Device) InFlightStart() (sim.Time, bool) {
	return d.headStart, d.inFlight > 0
}
