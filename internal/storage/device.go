package storage

import (
	"errors"
	"fmt"

	"repro/internal/units"
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
// it tracks an allocation watermark and health so that the DHL system
// simulation can exercise realistic storage behaviour.
type Device struct {
	Spec DeviceSpec

	used   units.Bytes
	failed bool
}

// Free returns the remaining capacity.
func (d *Device) Free() units.Bytes { return d.Spec.Capacity - d.used }

// Failed reports whether the device has been failed (e.g. in-flight SSD
// failure injection, §III-D).
func (d *Device) Failed() bool { return d.failed }

// Fail marks the device as failed. Subsequent writes error, and an Array
// no longer reads from it.
func (d *Device) Fail() { d.failed = true }

// Repair restores a failed device (cart serviced at the library, §III-B.6).
// Contents are considered lost: the watermark resets.
func (d *Device) Repair() {
	d.failed = false
	d.used = 0
}

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
	return d.Spec.WriteRate.TransferTime(n), nil
}
