package storage

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// PCIe generation per-lane bandwidths (decimal, after encoding overhead),
// indexed by generation; zero marks an unsupported one.
// §III-B.5: "version 6 provides 3.8tbps for 64 lanes" → 59.375 Gb/s per lane,
// ≈ 7.42 GB/s; one lane per SSD in the maximum (64-SSD) cart configuration.
var pciePerLane = [...]units.BitsPerSecond{
	3: 8 * units.Gbps,
	4: 16 * units.Gbps,
	5: 32 * units.Gbps,
	6: units.BitsPerSecond(3.8e12 / 64),
}

// laneRate is the per-lane rate of a PCIe generation; ok is false for an
// unsupported one.
func laneRate(gen int) (r units.BitsPerSecond, ok bool) {
	if gen < 0 || gen >= len(pciePerLane) || pciePerLane[gen] == 0 {
		return 0, false
	}
	return pciePerLane[gen], true
}

// PCIeLaneRate returns the usable per-lane rate for a PCIe generation.
func PCIeLaneRate(gen int) (units.BitsPerSecond, error) {
	r, ok := laneRate(gen)
	if !ok {
		//dhllint:allow allocflow -- configuration validation, resolved before any hot I/O begins
		return 0, fmt.Errorf("storage: unsupported PCIe generation %d", gen)
	}
	return r, nil
}

// Errors returned by Array operations.
var (
	ErrNoDevices = errors.New("storage: array needs at least one device")
	ErrDegraded  = errors.New("storage: array degraded beyond redundancy")
)

// RAIDLevel selects the array redundancy scheme.
type RAIDLevel int

const (
	// RAID0 stripes with no redundancy (maximum capacity/bandwidth).
	RAID0 RAIDLevel = iota
	// RAID5 stripes with single-device parity. §III-D: "if an SSD fails
	// in-flight ... RAID and backups can ameliorate the issue".
	RAID5
)

// String implements fmt.Stringer.
func (l RAIDLevel) String() string {
	switch l {
	case RAID0:
		return "RAID0"
	case RAID5:
		return "RAID5"
	default:
		return fmt.Sprintf("RAIDLevel(%d)", int(l))
	}
}

// Array is a striped set of devices — the storage view of a cart. Reads and
// writes are striped evenly; aggregate bandwidth is additionally capped by
// the docking station's PCIe lanes.
type Array struct {
	Level   RAIDLevel
	Devices []*Device

	// LanesPerDevice and PCIeGen describe the docking interface.
	LanesPerDevice int
	PCIeGen        int
}

// NewArray builds an array over n fresh devices of the given spec.
func NewArray(level RAIDLevel, spec DeviceSpec, n int, pcieGen, lanesPerDevice int) (*Array, error) {
	if n < 1 {
		return nil, ErrNoDevices
	}
	if level == RAID5 && n < 3 {
		return nil, fmt.Errorf("storage: RAID5 needs ≥3 devices, got %d", n)
	}
	if _, err := PCIeLaneRate(pcieGen); err != nil {
		return nil, err
	}
	if lanesPerDevice < 1 {
		return nil, fmt.Errorf("storage: need ≥1 lane per device, got %d", lanesPerDevice)
	}
	// One backing slab for the fleet's devices: a 32-SSD cart costs two
	// allocations here, not 33, and construction dominates the shuttle
	// benchmarks' allocation budget.
	slab := make([]Device, n)
	devs := make([]*Device, n)
	for i := range devs {
		slab[i] = Device{Spec: spec}
		devs[i] = &slab[i]
	}
	return &Array{Level: level, Devices: devs, LanesPerDevice: lanesPerDevice, PCIeGen: pcieGen}, nil
}

// dataDevices is the number of devices carrying payload (RAID5 spends one on
// parity).
func (a *Array) dataDevices() int {
	if a.Level == RAID5 {
		return len(a.Devices) - 1
	}
	return len(a.Devices)
}

// Capacity is the usable payload capacity.
func (a *Array) Capacity() units.Bytes {
	return units.Bytes(float64(a.dataDevices()) * float64(a.Devices[0].Spec.Capacity))
}

// census is one read-only pass over the devices: everything the I/O paths
// and the status accessors derive from device state. Each sum accumulates
// in device order, as the per-quantity walks it replaces did, so every
// derived float is bit-identical to theirs.
type census struct {
	failed  int                  // failed devices
	used    units.Bytes          // payload stored (RAID5 parity excluded)
	readBW  units.BytesPerSecond // healthy devices' read rates, PCIe-capped
	writeBW units.BytesPerSecond // healthy devices' write rates, PCIe-capped
}

// census walks the devices once.
func (a *Array) census() census {
	var c census
	for _, d := range a.Devices {
		c.used += d.used
		if d.failed {
			c.failed++
			continue
		}
		c.readBW += d.Spec.ReadRate
		c.writeBW += d.Spec.WriteRate
	}
	if a.Level == RAID5 {
		c.used = units.Bytes(float64(c.used) * float64(a.dataDevices()) / float64(len(a.Devices)))
	}
	limit := a.pcieCap()
	if c.readBW > limit {
		c.readBW = limit
	}
	if c.writeBW > limit {
		c.writeBW = limit
	}
	return c
}

// healthy reports whether an array with failed devices down can still
// serve data: RAID0 tolerates no failures; RAID5 tolerates one.
func (a *Array) healthy(failed int) bool {
	if a.Level == RAID5 {
		return failed <= 1
	}
	return failed == 0
}

// Used is the payload bytes stored.
func (a *Array) Used() units.Bytes { return a.census().used }

// Healthy reports whether the array can still serve data: RAID0 tolerates no
// failures; RAID5 tolerates one.
func (a *Array) Healthy() bool { return a.healthy(a.census().failed) }

// pcieCap is the aggregate docking-interface bandwidth.
func (a *Array) pcieCap() units.BytesPerSecond {
	lane, ok := laneRate(a.PCIeGen)
	if !ok {
		return 0
	}
	total := units.BitsPerSecond(float64(lane) * float64(a.LanesPerDevice*len(a.Devices)))
	return total.BytesPerSecond()
}

// Write stripes n payload bytes across the array, returning the transfer
// time (devices operate in parallel: the slowest stripe dominates, then the
// PCIe cap applies).
//
//dhllint:hotpath
func (a *Array) Write(n units.Bytes) (units.Seconds, error) {
	if n < 0 {
		return 0, ErrNegativeLength
	}
	c := a.census()
	if !a.healthy(c.failed) {
		return 0, ErrDegraded
	}
	if c.used+n > a.Capacity() {
		//dhllint:allow allocflow -- capacity exhaustion ends the run; steady-state writes stay under the watermark
		return 0, fmt.Errorf("%w: %v used, %v requested, %v capacity",
			ErrOutOfSpace, c.used, n, a.Capacity())
	}
	// Payload per data device; RAID5 additionally writes parity so every
	// device receives per-device bytes.
	per := units.Bytes(float64(n) / float64(a.dataDevices()))
	var worst units.Seconds
	for _, d := range a.Devices {
		if d.failed {
			continue // degraded RAID5: parity substitutes
		}
		t, err := d.Write(per)
		if err != nil {
			return 0, err
		}
		if t > worst {
			worst = t
		}
	}
	return a.capTime(n, worst, c.writeBW), nil
}

// Read reads n payload bytes, returning the transfer time. A degraded RAID5
// array still serves reads (reconstruction from parity) at the surviving
// devices' bandwidth.
//
//dhllint:hotpath
func (a *Array) Read(n units.Bytes) (units.Seconds, error) {
	if n < 0 {
		return 0, ErrNegativeLength
	}
	return a.read(n, a.census())
}

// read is Read on a census already taken.
func (a *Array) read(n units.Bytes, c census) (units.Seconds, error) {
	if !a.healthy(c.failed) {
		return 0, ErrDegraded
	}
	if n > c.used {
		//dhllint:allow allocflow -- out-of-range read is a caller bug, not steady-state I/O
		return 0, fmt.Errorf("%w: %v stored, %v requested", ErrOutOfRange, c.used, n)
	}
	// Degraded RAID5 reads touch every surviving stripe; model the same
	// per-device volume.
	per := units.Bytes(float64(n) / float64(a.dataDevices()))
	return a.capTime(n, a.stripeRead(per), c.readBW), nil
}

// stripeRead reads per bytes from every surviving device and returns the
// slowest stripe's time. Consecutive devices of one spec share a rate, so
// the transfer time is computed once per run of equal rates: the same
// division on the same operands, hence the same bits.
func (a *Array) stripeRead(per units.Bytes) units.Seconds {
	var worst, t units.Seconds
	rate := units.BytesPerSecond(math.NaN()) // matches no device rate
	for _, d := range a.Devices {
		if d.failed {
			continue
		}
		//dhllint:allow floateq -- cache key: equal rates give the identical quotient
		if d.Spec.ReadRate != rate {
			rate = d.Spec.ReadRate
			t = rate.TransferTime(per)
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// AvailablePayload is the payload readable under the current failure
// state. A healthy (or singly-degraded RAID5) array serves everything; a
// RAID0 array that lost f of n devices lost the stripes on those devices —
// the surviving (n−f)/n fraction is still addressable, per §III-D's
// observation that backups ameliorate partial data loss. A RAID5 array
// past its redundancy serves nothing.
func (a *Array) AvailablePayload() units.Bytes { return a.available(a.census()) }

// available is AvailablePayload on a census already taken.
func (a *Array) available(c census) units.Bytes {
	switch {
	case a.healthy(c.failed):
		return c.used
	case a.Level == RAID5:
		return 0
	default:
		return units.Bytes(float64(c.used) * float64(len(a.Devices)-c.failed) / float64(len(a.Devices)))
	}
}

// DegradedRead reads n payload bytes from the surviving stripes of an
// array that may have lost redundancy, returning the transfer time at the
// survivors' aggregate bandwidth. Unlike Read it does not require Healthy;
// it requires only that the requested bytes fit in AvailablePayload.
func (a *Array) DegradedRead(n units.Bytes) (units.Seconds, error) {
	if n < 0 {
		return 0, ErrNegativeLength
	}
	c := a.census()
	if a.healthy(c.failed) {
		return a.read(n, c)
	}
	if avail := a.available(c); n > avail {
		return 0, fmt.Errorf("%w: %v available on survivors, %v requested", ErrOutOfRange, avail, n)
	}
	surv := len(a.Devices) - c.failed
	if surv == 0 {
		return 0, fmt.Errorf("%w: no surviving devices", ErrDegraded)
	}
	per := units.Bytes(float64(n) / float64(surv))
	return a.capTime(n, a.stripeRead(per), c.readBW), nil
}

// capTime returns the device-limited time unless the PCIe-capped aggregate
// bandwidth is slower.
func (a *Array) capTime(n units.Bytes, deviceTime units.Seconds, bw units.BytesPerSecond) units.Seconds {
	pcieTime := bw.TransferTime(n)
	return units.Seconds(math.Max(float64(deviceTime), float64(pcieTime)))
}
