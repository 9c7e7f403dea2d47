package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// This file checks Array's single-pass I/O against refArray, a copy of the
// multi-pass implementation it replaced (one device walk each for health,
// Used, the striping loop and the bandwidth sum, and a map lookup for the
// PCIe lane rate). Every duration must match to the bit.

var refLaneRate = map[int]units.BitsPerSecond{
	3: 8 * units.Gbps,
	4: 16 * units.Gbps,
	5: 32 * units.Gbps,
	6: units.BitsPerSecond(3.8e12 / 64),
}

// refArray drives an Array through the replaced multi-pass code.
type refArray struct{ a *Array }

func (r refArray) used() units.Bytes {
	a := r.a
	var u units.Bytes
	for _, d := range a.Devices {
		u += d.Used()
	}
	if a.Level == RAID5 {
		u = units.Bytes(float64(u) * float64(a.dataDevices()) / float64(len(a.Devices)))
	}
	return u
}

func (r refArray) failedCount() int {
	n := 0
	for _, d := range r.a.Devices {
		if d.Failed() {
			n++
		}
	}
	return n
}

func (r refArray) healthy() bool {
	if r.a.Level == RAID5 {
		return r.failedCount() <= 1
	}
	return r.failedCount() == 0
}

func (r refArray) degraded() bool { return r.a.Level == RAID5 && r.failedCount() == 1 }

func (r refArray) pcieCap() units.BytesPerSecond {
	lane, ok := refLaneRate[r.a.PCIeGen]
	if !ok {
		return 0
	}
	return units.BitsPerSecond(float64(lane) * float64(r.a.LanesPerDevice*len(r.a.Devices))).BytesPerSecond()
}

func (r refArray) aggBandwidth(rate func(*Device) units.BytesPerSecond) units.BytesPerSecond {
	var sum units.BytesPerSecond
	for _, d := range r.a.Devices {
		if !d.Failed() {
			sum += rate(d)
		}
	}
	if c := r.pcieCap(); sum > c {
		sum = c
	}
	return sum
}

func (r refArray) readBandwidth() units.BytesPerSecond {
	return r.aggBandwidth(func(d *Device) units.BytesPerSecond { return d.Spec.ReadRate })
}

func (r refArray) writeBandwidth() units.BytesPerSecond {
	return r.aggBandwidth(func(d *Device) units.BytesPerSecond { return d.Spec.WriteRate })
}

func (r refArray) capTime(n units.Bytes, deviceTime units.Seconds, bw units.BytesPerSecond) units.Seconds {
	return units.Seconds(math.Max(float64(deviceTime), float64(bw.TransferTime(n))))
}

func (r refArray) write(n units.Bytes) (units.Seconds, error) {
	a := r.a
	if n < 0 {
		return 0, ErrNegativeLength
	}
	if !r.healthy() {
		return 0, ErrDegraded
	}
	if r.used()+n > a.Capacity() {
		return 0, fmt.Errorf("%w: %v used, %v requested, %v capacity",
			ErrOutOfSpace, r.used(), n, a.Capacity())
	}
	per := units.Bytes(float64(n) / float64(a.dataDevices()))
	var worst units.Seconds
	for _, d := range a.Devices {
		if d.Failed() {
			continue
		}
		t, err := d.Write(per)
		if err != nil {
			return 0, err
		}
		if t > worst {
			worst = t
		}
	}
	return r.capTime(n, worst, r.writeBandwidth()), nil
}

func (r refArray) read(n units.Bytes) (units.Seconds, error) {
	a := r.a
	if n < 0 {
		return 0, ErrNegativeLength
	}
	if !r.healthy() {
		return 0, ErrDegraded
	}
	if n > r.used() {
		return 0, fmt.Errorf("%w: %v stored, %v requested", ErrOutOfRange, r.used(), n)
	}
	per := units.Bytes(float64(n) / float64(a.dataDevices()))
	var worst units.Seconds
	for _, d := range a.Devices {
		if d.Failed() {
			continue
		}
		t := d.Spec.ReadRate.TransferTime(per)
		d.bytesRead += per
		if t > worst {
			worst = t
		}
	}
	return r.capTime(n, worst, r.readBandwidth()), nil
}

func (r refArray) surviving() int { return len(r.a.Devices) - r.failedCount() }

func (r refArray) availablePayload() units.Bytes {
	a := r.a
	f := r.failedCount()
	if f == 0 {
		return r.used()
	}
	if a.Level == RAID5 {
		if f <= 1 {
			return r.used()
		}
		return 0
	}
	return units.Bytes(float64(r.used()) * float64(len(a.Devices)-f) / float64(len(a.Devices)))
}

func (r refArray) degradedRead(n units.Bytes) (units.Seconds, error) {
	a := r.a
	if n < 0 {
		return 0, ErrNegativeLength
	}
	if r.healthy() {
		return r.read(n)
	}
	avail := r.availablePayload()
	if n > avail {
		return 0, fmt.Errorf("%w: %v available on survivors, %v requested", ErrOutOfRange, avail, n)
	}
	surv := r.surviving()
	if surv == 0 {
		return 0, fmt.Errorf("%w: no surviving devices", ErrDegraded)
	}
	per := units.Bytes(float64(n) / float64(surv))
	var worst units.Seconds
	for _, d := range a.Devices {
		if d.Failed() {
			continue
		}
		t := d.Spec.ReadRate.TransferTime(per)
		d.bytesRead += per
		if t > worst {
			worst = t
		}
	}
	return r.capTime(n, worst, r.readBandwidth()), nil
}

// randomSpecPool draws 1–4 device specs with irregular rates, so summing
// them in a different order changes the float result.
func randomSpecPool(rng *rand.Rand) []DeviceSpec {
	pool := make([]DeviceSpec, 1+rng.Intn(4))
	for i := range pool {
		pool[i] = DeviceSpec{
			Name:      fmt.Sprintf("dev%d", i),
			Kind:      "SSD",
			Capacity:  units.Bytes((1 + 15*rng.Float64()) * float64(units.TB)),
			ReadRate:  units.BytesPerSecond((0.2 + 8*rng.Float64()) * float64(units.GBps)),
			WriteRate: units.BytesPerSecond((0.2 + 8*rng.Float64()) * float64(units.GBps)),
		}
	}
	if rng.Intn(3) == 0 {
		pool = append(pool, SabrentRocket4Plus)
	}
	return pool
}

// twinArrays builds two identical arrays of mixed device specs: runs of
// devices share a spec, so both the equal-rate and the changed-rate
// branches of the striping loop are exercised.
func twinArrays(rng *rand.Rand) (*Array, *Array) {
	level := RAID0
	n := 1 + rng.Intn(64)
	if rng.Intn(2) == 0 && n >= 3 {
		level = RAID5
	}
	gen, lanes := 3+rng.Intn(4), 1+rng.Intn(4)
	pool := randomSpecPool(rng)
	specs := make([]DeviceSpec, n)
	cur := rng.Intn(len(pool))
	for i := range specs {
		if rng.Intn(4) == 0 {
			cur = rng.Intn(len(pool))
		}
		specs[i] = pool[cur]
	}
	build := func() *Array {
		a, err := NewArray(level, specs[0], n, gen, lanes)
		if err != nil {
			panic(err)
		}
		for i, d := range a.Devices {
			d.Spec = specs[i]
		}
		return a
	}
	return build(), build()
}

// randomSize picks a transfer size around the array's interesting
// boundaries: zero, negative, a fraction of what is stored or free, exactly
// Used or Capacity, and past either.
func randomSize(rng *rand.Rand, used, capacity units.Bytes) units.Bytes {
	switch rng.Intn(9) {
	case 0:
		return 0
	case 1:
		return -units.Bytes(1 + rng.Float64()*float64(units.TB))
	case 2:
		return used
	case 3:
		return used * units.Bytes(1+rng.Float64())
	case 4:
		return capacity
	case 5:
		return capacity * units.Bytes(1+rng.Float64())
	case 6:
		return (capacity - used) * units.Bytes(rng.Float64())
	default:
		return used * units.Bytes(rng.Float64())
	}
}

// sameOutcome compares two (duration, error) results exactly.
func sameOutcome(gotT, wantT units.Seconds, gotErr, wantErr error) error {
	if math.Float64bits(float64(gotT)) != math.Float64bits(float64(wantT)) {
		return fmt.Errorf("duration %v (%x), reference %v (%x)", float64(gotT),
			math.Float64bits(float64(gotT)), float64(wantT), math.Float64bits(float64(wantT)))
	}
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr == nil {
		return nil
	}
	for _, sentinel := range []error{ErrNegativeLength, ErrDegraded, ErrOutOfSpace, ErrOutOfRange, ErrDeviceFailed} {
		if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
			return fmt.Errorf("error %v, reference %v (differ on %v)", gotErr, wantErr, sentinel)
		}
	}
	if gotErr.Error() != wantErr.Error() {
		return fmt.Errorf("error %q, reference %q", gotErr, wantErr)
	}
	return nil
}

// sameState compares the arrays' derived quantities and every device's
// counters exactly.
func sameState(a *Array, r refArray) error {
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	checks := []struct {
		name      string
		got, want float64
	}{
		{"Used", float64(a.Used()), float64(r.used())},
		{"ReadBandwidth", float64(a.ReadBandwidth()), float64(r.readBandwidth())},
		{"WriteBandwidth", float64(a.WriteBandwidth()), float64(r.writeBandwidth())},
		{"AvailablePayload", float64(a.AvailablePayload()), float64(r.availablePayload())},
		{"SurvivingDevices", float64(a.SurvivingDevices()), float64(r.surviving())},
	}
	for _, c := range checks {
		if bits(c.got) != bits(c.want) {
			return fmt.Errorf("%s = %v, reference %v", c.name, c.got, c.want)
		}
	}
	if a.Healthy() != r.healthy() || a.Degraded() != r.degraded() {
		return fmt.Errorf("Healthy/Degraded = %t/%t, reference %t/%t", a.Healthy(), a.Degraded(), r.healthy(), r.degraded())
	}
	for i, d := range a.Devices {
		e := r.a.Devices[i]
		gr, gw := d.Totals()
		wr, ww := e.Totals()
		if bits(float64(gr)) != bits(float64(wr)) || bits(float64(gw)) != bits(float64(ww)) ||
			bits(float64(d.Used())) != bits(float64(e.Used())) || d.Failed() != e.Failed() {
			return fmt.Errorf("device %d: read/written/used/failed %v/%v/%v/%t, reference %v/%v/%v/%t",
				i, gr, gw, d.Used(), d.Failed(), wr, ww, e.Used(), e.Failed())
		}
	}
	return nil
}

// TestArrayIOMatchesMultiPassReference drives random arrays (RAID0 and
// RAID5, 1–64 devices of mixed specs, PCIe gens 3–6, 1–4 lanes) through
// random fail/repair sequences and transfers, and requires Array's
// single-pass Read/Write/DegradedRead to match the multi-pass reference to
// the bit: every duration, every error, every device counter.
func TestArrayIOMatchesMultiPassReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240617))
	ops := 0
	for trial := 0; trial < 400; trial++ {
		a, b := twinArrays(rng)
		ref := refArray{b}
		for step := 0; step < 60; step++ {
			var op string
			var err error
			switch k := rng.Intn(10); {
			case k < 3:
				n := randomSize(rng, ref.used(), b.Capacity())
				op = fmt.Sprintf("Write(%v)", float64(n))
				gt, ge := a.Write(n)
				wt, we := ref.write(n)
				err = sameOutcome(gt, wt, ge, we)
			case k < 6:
				n := randomSize(rng, ref.used(), b.Capacity())
				op = fmt.Sprintf("Read(%v)", float64(n))
				gt, ge := a.Read(n)
				wt, we := ref.read(n)
				err = sameOutcome(gt, wt, ge, we)
			case k < 8:
				n := randomSize(rng, ref.availablePayload(), b.Capacity())
				op = fmt.Sprintf("DegradedRead(%v)", float64(n))
				gt, ge := a.DegradedRead(n)
				wt, we := ref.degradedRead(n)
				err = sameOutcome(gt, wt, ge, we)
			case k < 9:
				i := rng.Intn(len(a.Devices))
				op = fmt.Sprintf("FailDevice(%d)", i)
				if e1, e2 := a.FailDevice(i), b.FailDevice(i); (e1 == nil) != (e2 == nil) {
					err = fmt.Errorf("FailDevice errors differ: %v vs %v", e1, e2)
				}
			default:
				i := rng.Intn(len(a.Devices))
				op = fmt.Sprintf("Repair(%d)", i)
				a.Devices[i].Repair()
				b.Devices[i].Repair()
			}
			if err == nil {
				err = sameState(a, ref)
			}
			if err != nil {
				t.Fatalf("trial %d step %d %v (%v, %d devices, gen %d ×%d): %v",
					trial, step, op, a.Level, len(a.Devices), a.PCIeGen, a.LanesPerDevice, err)
			}
			ops++
		}
	}
	t.Logf("%d operations matched the reference", ops)
}
