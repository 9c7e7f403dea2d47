package storage

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestCatalogDensityObservation(t *testing.T) {
	// §II-A: "the 8TB M.2 SSD is almost 100× lighter than the 3.5" HDD for
	// just 12.5× less capacity" — the density-per-gram argument.
	massRatio := float64(WDGold.Mass) / float64(SabrentRocket4Plus.Mass)
	capRatio := float64(WDGold.Capacity) / float64(SabrentRocket4Plus.Capacity)
	if massRatio < 100 || massRatio > 125 {
		t.Errorf("mass ratio = %v, want ≈118 (\"almost 100×\")", massRatio)
	}
	approx(t, "capacity ratio", capRatio, 3, 0.01) // 24/8
	// Nimbus vs largest regular HDD: 100 TB ≈ 4.2× the 24 TB WD Gold
	// (the paper's "5×" rounds against its 20 TB-class reference).
	if NimbusExaDrive.Capacity <= 4*WDGold.Capacity {
		t.Error("ExaDrive should be >4× WD Gold capacity")
	}
	// Per-gram density ordering: M.2 ≫ ExaDrive > HDD.
	density := func(d DeviceSpec) float64 { return float64(d.Capacity) / float64(d.Mass) }
	m2, exa, hdd := density(SabrentRocket4Plus), density(NimbusExaDrive), density(WDGold)
	if !(m2 > exa && exa > hdd) {
		t.Errorf("density ordering broken: m2=%v exa=%v hdd=%v", m2, exa, hdd)
	}
}

func TestReproDiskCounts(t *testing.T) {
	// §II-C: "29PB requires 1319 22TB HDDs or 290 100TB SSDs".
	if got := WD22TB.DrivesFor(29 * units.PB); got != 1319 {
		t.Errorf("22TB HDDs for 29PB = %d, want 1319", got)
	}
	if got := NimbusExaDrive.DrivesFor(29 * units.PB); got != 290 {
		t.Errorf("100TB SSDs for 29PB = %d, want 290", got)
	}
	if got := SabrentRocket4Plus.DrivesFor(0); got != 0 {
		t.Errorf("drives for 0 bytes = %d, want 0", got)
	}
}

func TestDeviceSpecString(t *testing.T) {
	s := SabrentRocket4Plus.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestDeviceWriteReadLifecycle(t *testing.T) {
	d := &Device{Spec: SabrentRocket4Plus}
	if d.Free() != 8*units.TB {
		t.Fatalf("fresh device free = %v", d.Free())
	}
	wt, err := d.Write(6 * units.TB)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "write time", float64(wt), 6e12/6e9, 1e-9) // 6 TB at 6 GB/s = 1000 s
	if d.used != 6*units.TB || d.Free() != 2*units.TB {
		t.Errorf("used=%v free=%v", d.used, d.Free())
	}
}

func TestDeviceErrors(t *testing.T) {
	d := &Device{Spec: SabrentRocket4Plus}
	if _, err := d.Write(9 * units.TB); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("overfill err = %v", err)
	}
	if _, err := d.Write(-1); !errors.Is(err, ErrNegativeLength) {
		t.Errorf("negative write err = %v", err)
	}
	d.Fail()
	if !d.Failed() {
		t.Error("Fail() did not stick")
	}
	if _, err := d.Write(units.GB); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("failed write err = %v", err)
	}
	d.Repair()
	if d.Failed() || d.used != 0 {
		t.Error("Repair() must restore health and reset contents")
	}
}

func TestPCIeLaneRate(t *testing.T) {
	r6, err := PCIeLaneRate(6)
	if err != nil {
		t.Fatal(err)
	}
	// §III-B.5: 3.8 Tb/s over 64 lanes.
	approx(t, "pcie6 ×64", float64(r6)*64, 3.8e12, 1e-9)
	if _, err := PCIeLaneRate(7); err == nil {
		t.Error("unknown generation must error")
	}
}

func TestArrayValidation(t *testing.T) {
	if _, err := NewArray(RAID0, SabrentRocket4Plus, 0, 6, 1); !errors.Is(err, ErrNoDevices) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewArray(RAID5, SabrentRocket4Plus, 2, 6, 1); err == nil {
		t.Error("RAID5 with 2 devices must be rejected")
	}
	if _, err := NewArray(RAID0, SabrentRocket4Plus, 4, 9, 1); err == nil {
		t.Error("bad PCIe generation must be rejected")
	}
	if _, err := NewArray(RAID0, SabrentRocket4Plus, 4, 6, 0); err == nil {
		t.Error("zero lanes must be rejected")
	}
}

func TestCartArrayCapacityAndBandwidth(t *testing.T) {
	// The paper's default cart: 32 × 8 TB M.2 = 256 TB.
	a, err := NewArray(RAID0, SabrentRocket4Plus, 32, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 256*units.TB {
		t.Errorf("capacity = %v, want 256TB", a.Capacity())
	}
	// Device-sum read bandwidth 32×7.1 GB/s = 227.2 GB/s; PCIe6 ×32 lanes =
	// 1.9 Tb/s = 237.5 GB/s, so devices limit.
	approx(t, "read bw", float64(a.census().readBW), 227.2e9, 1e-9)
	// Local access "well into the terabytes per second" needs more lanes:
	// 64-SSD cart: 64×7.1 = 454.4 GB/s device-limited.
	big, _ := NewArray(RAID0, SabrentRocket4Plus, 64, 6, 1)
	approx(t, "64-SSD read bw", float64(big.census().readBW), 454.4e9, 1e-9)
}

func TestArrayPCIeCapApplies(t *testing.T) {
	// Constrain to PCIe gen 3 ×1 per device: 1 GB/s per device caps the
	// 7.1 GB/s devices.
	a, err := NewArray(RAID0, SabrentRocket4Plus, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "capped bw", float64(a.census().readBW), 4e9, 1e-9)
	tt, err := a.Write(4 * units.TB)
	if err != nil {
		t.Fatal(err)
	}
	// PCIe-capped write: 4 TB at 4 GB/s = 1000 s (device-limited would be
	// 1 TB/device at 6 GB/s ≈ 167 s).
	approx(t, "capped write time", float64(tt), 1000, 1e-9)
}

func TestArrayStripedTiming(t *testing.T) {
	a, _ := NewArray(RAID0, SabrentRocket4Plus, 32, 6, 2)
	tt, err := a.Write(256 * units.TB)
	if err != nil {
		t.Fatal(err)
	}
	// 8 TB per device at 6 GB/s = 1333.3 s.
	approx(t, "full write", float64(tt), 8e12/6e9, 1e-9)
	rt, err := a.Read(256 * units.TB)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "full read", float64(rt), 8e12/7.1e9, 1e-9)
	if _, err := a.Write(units.GB); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("overfill err = %v", err)
	}
}

func TestArrayErrors(t *testing.T) {
	a, _ := NewArray(RAID0, SabrentRocket4Plus, 4, 6, 1)
	if _, err := a.Write(-1); !errors.Is(err, ErrNegativeLength) {
		t.Errorf("err = %v", err)
	}
	if _, err := a.Read(-1); !errors.Is(err, ErrNegativeLength) {
		t.Errorf("err = %v", err)
	}
	if _, err := a.Read(units.GB); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v", err)
	}
}

func TestRAID0FailureIsFatal(t *testing.T) {
	a, _ := NewArray(RAID0, SabrentRocket4Plus, 4, 6, 1)
	if _, err := a.Write(units.TB); err != nil {
		t.Fatal(err)
	}
	a.Devices[2].Fail()
	if a.Healthy() {
		t.Error("RAID0 with a failed device must be unhealthy")
	}
	if _, err := a.Read(units.TB); !errors.Is(err, ErrDegraded) {
		t.Errorf("read err = %v", err)
	}
}

func TestRAID5SurvivesOneFailure(t *testing.T) {
	a, err := NewArray(RAID5, SabrentRocket4Plus, 33, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 33 devices, 32 data: usable 256 TB.
	if a.Capacity() != 256*units.TB {
		t.Errorf("RAID5 capacity = %v", a.Capacity())
	}
	if _, err := a.Write(100 * units.TB); err != nil {
		t.Fatal(err)
	}
	a.Devices[5].Fail()
	if !a.Healthy() || a.census().failed != 1 {
		t.Error("one failure must leave RAID5 healthy but degraded")
	}
	if _, err := a.Read(100 * units.TB); err != nil {
		t.Errorf("degraded read failed: %v", err)
	}
	// Second failure is fatal.
	a.Devices[6].Fail()
	if a.Healthy() {
		t.Error("two failures must kill RAID5")
	}
	if _, err := a.Read(units.GB); !errors.Is(err, ErrDegraded) {
		t.Errorf("err = %v", err)
	}
}

func TestArrayWriteReadConservationProperty(t *testing.T) {
	f := func(raw uint32) bool {
		n := units.Bytes(float64(raw%1000)+1) * units.GB
		a, err := NewArray(RAID0, SabrentRocket4Plus, 8, 6, 1)
		if err != nil {
			return false
		}
		if _, err := a.Write(n); err != nil {
			return false
		}
		if math.Abs(float64(a.Used()-n)) > 1e-3 {
			return false
		}
		_, err = a.Read(n)
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRAIDLevelString(t *testing.T) {
	if RAID0.String() != "RAID0" || RAID5.String() != "RAID5" {
		t.Error("RAID level strings wrong")
	}
	if RAIDLevel(7).String() != "RAIDLevel(7)" {
		t.Errorf("got %q", RAIDLevel(7).String())
	}
}

func TestRAID0DegradedReadServesSurvivingStripes(t *testing.T) {
	a, _ := NewArray(RAID0, SabrentRocket4Plus, 4, 6, 1)
	if _, err := a.Write(20 * units.TB); err != nil {
		t.Fatal(err)
	}
	// Healthy arrays delegate: DegradedRead == Read.
	hd, err := a.DegradedRead(8 * units.TB)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := a.Read(8 * units.TB)
	if err != nil {
		t.Fatal(err)
	}
	if hd != hr {
		t.Errorf("healthy DegradedRead = %v, Read = %v; must match", hd, hr)
	}

	a.Devices[1].Fail()
	if got := a.census().failed; got != 1 {
		t.Errorf("failed devices = %d, want 1", got)
	}
	// One of four stripes is gone: 15 TB of the 20 TB payload survives.
	if got := a.AvailablePayload(); got != 15*units.TB {
		t.Errorf("AvailablePayload = %v, want 15 TB", got)
	}
	dt, err := a.DegradedRead(15 * units.TB)
	if err != nil {
		t.Fatalf("degraded read of available payload: %v", err)
	}
	if dt <= 0 {
		t.Errorf("degraded read time = %v, must be positive", dt)
	}
	// Asking beyond the survivors is out of range, not a cart death.
	if _, err := a.DegradedRead(16 * units.TB); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("over-available read err = %v, want ErrOutOfRange", err)
	}
	if _, err := a.DegradedRead(-1); !errors.Is(err, ErrNegativeLength) {
		t.Errorf("negative read err = %v", err)
	}
}

func TestDegradedReadSlowerOnFewerDevices(t *testing.T) {
	healthy, _ := NewArray(RAID0, SabrentRocket4Plus, 4, 6, 1)
	degraded, _ := NewArray(RAID0, SabrentRocket4Plus, 4, 6, 1)
	for _, a := range []*Array{healthy, degraded} {
		if _, err := a.Write(20 * units.TB); err != nil {
			t.Fatal(err)
		}
	}
	degraded.Devices[0].Fail()
	const n = 12 * units.TB
	ht, err := healthy.Read(n)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := degraded.DegradedRead(n)
	if err != nil {
		t.Fatal(err)
	}
	if dt < ht {
		t.Errorf("degraded read %v faster than healthy %v; three devices cannot beat four", dt, ht)
	}
}

func TestRAID5PastRedundancyServesNothing(t *testing.T) {
	a, _ := NewArray(RAID5, SabrentRocket4Plus, 4, 6, 1)
	if _, err := a.Write(10 * units.TB); err != nil {
		t.Fatal(err)
	}
	// One failure: parity covers it, everything still available.
	a.Devices[0].Fail()
	if got := a.AvailablePayload(); got != 10*units.TB {
		t.Errorf("singly-degraded RAID5 AvailablePayload = %v, want full 10 TB", got)
	}
	// Two failures: the stripe set is unrecoverable.
	a.Devices[1].Fail()
	if got := a.AvailablePayload(); got != 0 {
		t.Errorf("doubly-failed RAID5 AvailablePayload = %v, want 0", got)
	}
	if _, err := a.DegradedRead(units.GB); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read from dead RAID5 err = %v, want ErrOutOfRange", err)
	}
}
