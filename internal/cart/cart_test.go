package cart

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestReproCartMasses(t *testing.T) {
	// Table V: cart masses 161, 282, 524 g for 16, 32, 64 SSDs.
	want := map[int]float64{16: 161, 32: 282, 64: 524}
	for n, m := range want {
		c := MustNew(DefaultConfig().WithSSDs(n))
		approx(t, "total mass", float64(c.TotalMass), m, 0.005)
	}
}

func TestReproSSDPackMasses(t *testing.T) {
	// §IV-A: 32 SSDs → 180 g pack; 16 → 91 g; 64 → 363 g.
	want := map[int]float64{16: 91, 32: 180, 64: 363}
	for n, m := range want {
		c := MustNew(DefaultConfig().WithSSDs(n))
		approx(t, "SSD pack mass", float64(c.SSDMass), m, 0.01)
	}
}

func TestCartCapacities(t *testing.T) {
	want := map[int]units.Bytes{16: 128 * units.TB, 32: 256 * units.TB, 64: 512 * units.TB}
	for n, cap := range want {
		c := MustNew(DefaultConfig().WithSSDs(n))
		if c.Capacity() != cap {
			t.Errorf("%d SSDs capacity = %v, want %v", n, c.Capacity(), cap)
		}
	}
}

func TestMassDecompositionClosure(t *testing.T) {
	c := MustNew(DefaultConfig())
	sum := c.SSDMass + c.MagnetMass + c.FinMass + c.Config.FrameMass
	approx(t, "mass closure", float64(sum), float64(c.TotalMass), 1e-12)
	approx(t, "magnet fraction", float64(c.MagnetMass)/float64(c.TotalMass), 0.10, 1e-12)
	approx(t, "fin fraction", float64(c.FinMass)/float64(c.TotalMass), 0.15, 1e-12)
}

func TestMassClosureProperty(t *testing.T) {
	f := func(nRaw uint8, magRaw, finRaw float64) bool {
		n := int(nRaw%128) + 1
		mag := math.Abs(math.Mod(magRaw, 0.4))
		fin := math.Abs(math.Mod(finRaw, 0.4))
		cfg := DefaultConfig()
		cfg.NumSSDs = n
		cfg.MagnetFraction = mag
		cfg.FinFraction = fin
		c, err := New(cfg)
		if err != nil {
			return mag+fin >= 1 // only rejectable reason here
		}
		sum := float64(c.SSDMass + c.MagnetMass + c.FinMass + cfg.FrameMass)
		return math.Abs(sum-float64(c.TotalMass)) < 1e-9*float64(c.TotalMass)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(DefaultConfig().WithSSDs(0)); !errors.Is(err, ErrNoSSDs) {
		t.Errorf("err = %v", err)
	}
	cfg := DefaultConfig()
	cfg.MagnetFraction = 0.6
	cfg.FinFraction = 0.5
	if _, err := New(cfg); !errors.Is(err, ErrBadMassFractions) {
		t.Errorf("err = %v", err)
	}
	cfg = DefaultConfig()
	cfg.MagnetFraction = -0.1
	if _, err := New(cfg); !errors.Is(err, ErrBadMassFractions) {
		t.Errorf("err = %v", err)
	}
	cfg = DefaultConfig()
	cfg.SSD = storage.DeviceSpec{Name: "empty"}
	if _, err := New(cfg); err == nil {
		t.Error("zero-capacity SSD must be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config must panic")
		}
	}()
	MustNew(DefaultConfig().WithSSDs(-1))
}

func TestNewArrayFromCart(t *testing.T) {
	c := MustNew(DefaultConfig())
	a, err := c.NewArray(storage.RAID0, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != c.Capacity() {
		t.Errorf("array capacity %v != cart capacity %v", a.Capacity(), c.Capacity())
	}
}

func TestString(t *testing.T) {
	if MustNew(DefaultConfig()).String() == "" {
		t.Error("empty String()")
	}
}
