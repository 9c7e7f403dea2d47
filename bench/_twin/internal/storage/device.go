package storage

import (
	"errors"
	"fmt"

	"repro/bench/_twin/internal/units"
)

// Errors returned by Device operations.
var (
	ErrDeviceFailed   = errors.New("storage: device has failed")
	ErrOutOfSpace     = errors.New("storage: write beyond device capacity")
	ErrOutOfRange     = errors.New("storage: read beyond device capacity")
	ErrNegativeLength = errors.New("storage: negative transfer length")
)

// Device is a simulated block device. It does not hold payload bytes — the
// models only care about capacities, timing, energy, and failure state — but
// it tracks an allocation watermark, wear counters and health so that the
// DHL system simulation can exercise realistic storage behaviour.
type Device struct {
	Spec DeviceSpec

	used         units.Bytes
	bytesRead    units.Bytes
	bytesWritten units.Bytes
	failed       bool
	plugCount    int
}

// NewDevice creates a healthy, empty device of the given spec.
func NewDevice(spec DeviceSpec) *Device { return &Device{Spec: spec} }

// Used returns the allocation watermark.
func (d *Device) Used() units.Bytes { return d.used }

// Free returns the remaining capacity.
func (d *Device) Free() units.Bytes { return d.Spec.Capacity - d.used }

// Failed reports whether the device has been failed (e.g. in-flight SSD
// failure injection, §III-D).
func (d *Device) Failed() bool { return d.failed }

// Fail marks the device as failed. Subsequent reads and writes error.
func (d *Device) Fail() { d.failed = true }

// Repair restores a failed device (cart serviced at the library, §III-B.6).
// Contents are considered lost: the watermark resets.
func (d *Device) Repair() {
	d.failed = false
	d.used = 0
}

// Plug records one connector mating cycle and reports whether the connector
// is still within its rated life (§VI, Increasing Connector Longevity).
func (d *Device) Plug() (withinRating bool) {
	d.plugCount++
	return d.Spec.PlugCycles <= 0 || d.plugCount <= d.Spec.PlugCycles
}

// PlugCount returns the number of mating cycles so far.
func (d *Device) PlugCount() int { return d.plugCount }

// Write appends n bytes, returning the transfer time at the device's
// sequential write rate.
//
//dhllint:hotpath
func (d *Device) Write(n units.Bytes) (units.Seconds, error) {
	if n < 0 {
		return 0, ErrNegativeLength
	}
	if d.failed {
		//dhllint:allow allocflow -- failed-device rejection is the fault path, not steady-state I/O
		return 0, fmt.Errorf("%w: %s", ErrDeviceFailed, d.Spec.Name)
	}
	if d.used+n > d.Spec.Capacity {
		//dhllint:allow allocflow -- capacity exhaustion ends the run; steady-state writes stay under the watermark
		return 0, fmt.Errorf("%w: %v used, %v requested, %v capacity",
			ErrOutOfSpace, d.used, n, d.Spec.Capacity)
	}
	d.used += n
	d.bytesWritten += n
	return d.Spec.WriteRate.TransferTime(n), nil
}

// Read reads n bytes from the allocated region, returning the transfer time
// at the device's sequential read rate.
//
//dhllint:hotpath
func (d *Device) Read(n units.Bytes) (units.Seconds, error) {
	if n < 0 {
		return 0, ErrNegativeLength
	}
	if d.failed {
		//dhllint:allow allocflow -- failed-device rejection is the fault path, not steady-state I/O
		return 0, fmt.Errorf("%w: %s", ErrDeviceFailed, d.Spec.Name)
	}
	if n > d.used {
		//dhllint:allow allocflow -- out-of-range read is a caller bug, not steady-state I/O
		return 0, fmt.Errorf("%w: %v allocated, %v requested", ErrOutOfRange, d.used, n)
	}
	d.bytesRead += n
	return d.Spec.ReadRate.TransferTime(n), nil
}

// Totals returns lifetime read and written byte counters.
func (d *Device) Totals() (read, written units.Bytes) { return d.bytesRead, d.bytesWritten }

// ActivePower returns the device's power draw while transferring. M.2 NVMe
// devices draw up to 10 W under load (§VI); HDD/3.5" devices are modelled at
// the same order since only SSD carts matter to the DHL results.
func (d *Device) ActivePower() units.Watts { return MaxPowerM2 }
