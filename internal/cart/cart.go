// Package cart implements the DHL cart composition and mass model of
// §III-B.1 and §IV-A of the paper.
//
// A cart is a polyacetal frame (≤30 g) holding N M.2 SSDs, with neodymium
// Halbach arrays for levitation and an aluminium fin for LIM propulsion. The
// paper's track configuration needs magnets at 10 % of total cart mass and a
// fin at 15 %, so:
//
//	total = (frame + SSDs) / (1 − 0.10 − 0.15)
//
// which reproduces Table V's 161 / 282 / 524 g for 16 / 32 / 64 SSDs.
package cart

import (
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/units"
)

// Paper constants (§IV-A).
const (
	// MagnetMassFraction: Halbach arrays plus correcting magnets are 10 % of
	// cart mass for a 10 mm air gap.
	MagnetMassFraction = 0.10
	// FinMassFraction: the aluminium fin is 15 % of cart mass.
	FinMassFraction = 0.15
	// DefaultFrameMass: "no greater than 30 grams".
	DefaultFrameMass units.Grams = 30
	// AirGapMM is the standard levitation height.
	AirGapMM = 10.0
)

// Errors returned by cart construction.
var (
	ErrNoSSDs           = errors.New("cart: need at least one SSD")
	ErrBadMassFractions = errors.New("cart: magnet+fin mass fractions must sum below 1")
)

// Config describes a cart build.
type Config struct {
	// SSD is the storage device model loaded on the cart.
	SSD storage.DeviceSpec
	// NumSSDs is the number of SSDs (16, 32 or 64 in the paper's sweep).
	NumSSDs int
	// FrameMass of the polyacetal structure.
	FrameMass units.Grams
	// MagnetFraction and FinFraction of total cart mass.
	MagnetFraction, FinFraction float64
}

// DefaultConfig is the paper's bold configuration: 32 × 8 TB M.2 (256 TB,
// 282 g).
func DefaultConfig() Config {
	return Config{
		SSD:            storage.SabrentRocket4Plus,
		NumSSDs:        32,
		FrameMass:      DefaultFrameMass,
		MagnetFraction: MagnetMassFraction,
		FinFraction:    FinMassFraction,
	}
}

// WithSSDs returns a copy of the config with n SSDs.
func (c Config) WithSSDs(n int) Config {
	c.NumSSDs = n
	return c
}

// Cart is a built cart: the mass decomposition plus its storage array.
type Cart struct {
	Config Config

	// Mass decomposition.
	SSDMass    units.Grams
	MagnetMass units.Grams
	FinMass    units.Grams
	TotalMass  units.Grams
}

// New validates the config and computes the mass decomposition.
func New(cfg Config) (*Cart, error) {
	if cfg.NumSSDs < 1 {
		return nil, ErrNoSSDs
	}
	if cfg.SSD.Capacity <= 0 {
		return nil, fmt.Errorf("cart: SSD spec %q has no capacity", cfg.SSD.Name)
	}
	payloadFrac := 1 - cfg.MagnetFraction - cfg.FinFraction
	if cfg.MagnetFraction < 0 || cfg.FinFraction < 0 || payloadFrac <= 0 {
		return nil, fmt.Errorf("%w: magnet=%v fin=%v", ErrBadMassFractions,
			cfg.MagnetFraction, cfg.FinFraction)
	}
	ssd := units.Grams(float64(cfg.NumSSDs) * float64(cfg.SSD.Mass))
	total := (cfg.FrameMass + ssd) / units.Grams(payloadFrac)
	return &Cart{
		Config:     cfg,
		SSDMass:    ssd,
		MagnetMass: units.Grams(float64(total) * cfg.MagnetFraction),
		FinMass:    units.Grams(float64(total) * cfg.FinFraction),
		TotalMass:  total,
	}, nil
}

// MustNew is New for known-good configs; it panics on error. Intended for
// package-level defaults and tests.
func MustNew(cfg Config) *Cart {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Capacity is the cart's total storage capacity.
func (c *Cart) Capacity() units.Bytes {
	return units.Bytes(float64(c.Config.NumSSDs) * float64(c.Config.SSD.Capacity))
}

// NewArray builds the cart's storage array (RAID level and PCIe interface
// per docking-station design; the paper pairs one PCIe-6 lane per SSD at the
// 64-SSD maximum).
func (c *Cart) NewArray(level storage.RAIDLevel, pcieGen, lanesPerSSD int) (*storage.Array, error) {
	return storage.NewArray(level, c.Config.SSD, c.Config.NumSSDs, pcieGen, lanesPerSSD)
}

// String summarises the cart.
func (c *Cart) String() string {
	return fmt.Sprintf("cart{%d×%s = %v, %v}",
		c.Config.NumSSDs, c.Config.SSD.Name, c.Capacity(), c.TotalMass)
}
