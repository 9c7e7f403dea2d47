// Package storage models the storage media underpinning the DHL: the device
// catalogue of Table II, simulated SSD devices with sequential bandwidth and
// wear, RAID-0 striping across a cart's SSDs, and the PCIe interface that a
// docking station exposes to compute nodes (§III-B.5).
package storage

import (
	"fmt"
	"math"

	"repro/bench/_twin/internal/units"
)

// FormFactor describes a device package.
type FormFactor string

// Form factors from Table II.
const (
	FormFactor35 FormFactor = "3.5\""
	FormFactorM2 FormFactor = "M.2"
	FormFactorU2 FormFactor = "U.2"
)

// DeviceSpec is one row of the paper's Table II storage catalogue.
type DeviceSpec struct {
	Name       string
	Kind       string // "HDD" or "SSD"
	Capacity   units.Bytes
	Form       FormFactor
	Mass       units.Grams
	ReadRate   units.BytesPerSecond // sequential read
	WriteRate  units.BytesPerSecond // sequential write
	PlugCycles int                  // rated connector plug/unplug cycles
}

// Table II device catalogue, plus connector longevity from §VI.
var (
	// WDGold is the 24 TB 3.5" enterprise HDD.
	WDGold = DeviceSpec{
		Name: "WD Gold", Kind: "HDD", Capacity: 24 * units.TB,
		Form: FormFactor35, Mass: 670, ReadRate: 291 * units.MBps,
		WriteRate: 291 * units.MBps, PlugCycles: 500,
	}
	// NimbusExaDrive is the 100 TB 3.5" SSD.
	NimbusExaDrive = DeviceSpec{
		Name: "Nimbus ExaDrive", Kind: "SSD", Capacity: 100 * units.TB,
		Form: FormFactor35, Mass: 538, ReadRate: 500 * units.MBps,
		WriteRate: 460 * units.MBps, PlugCycles: 500,
	}
	// SabrentRocket4Plus is the 8 TB M.2 SSD the DHL cart is built from.
	SabrentRocket4Plus = DeviceSpec{
		Name: "Sabrent Rocket 4 Plus", Kind: "SSD", Capacity: 8 * units.TB,
		Form: FormFactorM2, Mass: 5.67, ReadRate: 7100 * units.MBps,
		WriteRate: 6000 * units.MBps, PlugCycles: 300, // M.2: "100s of cycles"
	}
	// WD22TB is the 22 TB HDD used in the paper's "1319 drives by hand"
	// thought experiment (§II-C).
	WD22TB = DeviceSpec{
		Name: "22TB HDD", Kind: "HDD", Capacity: 22 * units.TB,
		Form: FormFactor35, Mass: 670, ReadRate: 291 * units.MBps,
		WriteRate: 291 * units.MBps, PlugCycles: 500,
	}
)

// Catalog lists all known devices.
func Catalog() []DeviceSpec {
	return []DeviceSpec{WDGold, NimbusExaDrive, SabrentRocket4Plus, WD22TB}
}

// DensityPerGram is the storage density in bytes per gram — the quantity the
// paper observes has been "quietly skyrocketing" for M.2 SSDs.
func (d DeviceSpec) DensityPerGram() units.BytesPerGram {
	if d.Mass <= 0 {
		return units.BytesPerGram(math.Inf(1))
	}
	return units.BytesPerGram(float64(d.Capacity) / float64(d.Mass))
}

// DrivesFor returns how many of this device are needed to hold the dataset.
func (d DeviceSpec) DrivesFor(data units.Bytes) int {
	if d.Capacity <= 0 {
		return 0
	}
	return int(math.Ceil(float64(data) / float64(d.Capacity)))
}

// String summarises the device.
func (d DeviceSpec) String() string {
	return fmt.Sprintf("%s (%s %s, %v, %v)", d.Name, d.Form, d.Kind, d.Capacity, d.Mass)
}

// MaxPowerM2 is the peak power draw of an M.2 SSD under load (§VI "an M.2
// SSD can consume up to 10W under load").
const MaxPowerM2 units.Watts = 10
