// Package cost implements the paper's materials cost model (§V-D,
// Table VIII): commodity prices for the rail (aluminium levitation rings,
// PVC rail and vacuum tube) and for the LIM accelerator/decelerator (copper
// coils and a variable-frequency drive).
//
// Construction cost is deliberately excluded, as in the paper ("highly
// variable and application-specific").
package cost

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// Commodity prices, USD/kg, taken May 2023 (Table VIII).
const (
	AluminiumPerKg units.USDPerKg = 2.35
	PVCPerKg       units.USDPerKg = 1.20
	CopperPerKg    units.USDPerKg = 8.58
)

// Rail material intensities, derived from Table VIII(a): each column of the
// table divides back to a fixed mass per metre.
const (
	// AluminiumPerMetre: $117 per 100 m at $2.35/kg → 497.9 g/m.
	AluminiumPerMetre units.GramsPerMetre = 497.87
	// PVCRailPerMetre: $116 per 100 m at $1.20/kg → 966.7 g/m.
	PVCRailPerMetre units.GramsPerMetre = 966.67
	// PVCTubePerMetre: $500 per 100 m at $1.20/kg → 4.167 kg/m.
	PVCTubePerMetre units.GramsPerMetre = 4166.7
	// VFDCost is the variable frequency drive, flat.
	VFDCost units.USD = 8000
)

// copperMassKg maps LIM top speed (m/s) to coil copper mass (kg), inverted
// from Table VIII(b): $792/$2,904/$6,512 at $8.58/kg.
var copperMassKg = []struct{ speed, kg float64 }{
	{100, 792.0 / 8.58},
	{200, 2904.0 / 8.58},
	{300, 6512.0 / 8.58},
}

// CopperMass returns the LIM coil copper mass for a top speed, exact at the
// paper's 100/200/300 m/s grid and linearly interpolated/extrapolated
// elsewhere (coil mass grows close to v², i.e. with LIM length).
func CopperMass(speed units.MetresPerSecond) units.Grams {
	v := float64(speed)
	pts := copperMassKg
	i := sort.Search(len(pts), func(i int) bool { return pts[i].speed >= v })
	switch {
	case i == 0:
		i = 1
	case i == len(pts):
		i = len(pts) - 1
	}
	a, b := pts[i-1], pts[i]
	kg := a.kg + (b.kg-a.kg)*(v-a.speed)/(b.speed-a.speed)
	return units.Grams(math.Max(kg, 0) * 1000)
}

// RailCost is the Table VIII(a) decomposition for a track of the given
// length.
type RailCost struct {
	Length    units.Metres
	Aluminium units.USD
	PVCRail   units.USD
	PVCTube   units.USD
}

// Rail computes the rail materials cost.
func Rail(length units.Metres) RailCost {
	return RailCost{
		Length:    length,
		Aluminium: AluminiumPerKg.Cost(AluminiumPerMetre.Mass(length)),
		PVCRail:   PVCPerKg.Cost(PVCRailPerMetre.Mass(length)),
		PVCTube:   PVCPerKg.Cost(PVCTubePerMetre.Mass(length)),
	}
}

// Total sums the rail components.
func (r RailCost) Total() units.USD { return r.Aluminium + r.PVCRail + r.PVCTube }

// LIMCost is the Table VIII(b) decomposition for one accelerator/decelerator
// assembly sized for a top speed.
type LIMCost struct {
	TopSpeed units.MetresPerSecond
	Copper   units.USD
	VFD      units.USD
}

// LIM computes the accelerator/decelerator materials cost.
func LIM(topSpeed units.MetresPerSecond) LIMCost {
	return LIMCost{
		TopSpeed: topSpeed,
		Copper:   CopperPerKg.Cost(CopperMass(topSpeed)),
		VFD:      VFDCost,
	}
}

// Total sums the LIM components.
func (l LIMCost) Total() units.USD { return l.Copper + l.VFD }

// Overall is the Table VIII(c) total: rail for the distance plus the LIM
// assembly for the speed.
func Overall(length units.Metres, topSpeed units.MetresPerSecond) units.USD {
	return Rail(length).Total() + LIM(topSpeed).Total()
}

// Grid evaluates Overall over the paper's distance × speed grid and returns
// rows in Table VIII(c) order (distance-major).
type GridCell struct {
	Length units.Metres
	Speed  units.MetresPerSecond
	Total  units.USD
}

// PaperGrid returns the 3×3 Table VIII(c) grid.
func PaperGrid() []GridCell {
	lengths := []units.Metres{100, 500, 1000}
	speeds := []units.MetresPerSecond{100, 200, 300}
	var out []GridCell
	for _, l := range lengths {
		for _, v := range speeds {
			out = append(out, GridCell{Length: l, Speed: v, Total: Overall(l, v)})
		}
	}
	return out
}

// String renders a grid cell.
func (g GridCell) String() string {
	return fmt.Sprintf("%gm/%gm/s: %v", float64(g.Length), float64(g.Speed), g.Total)
}

// ComparableSwitchCost is the paper's yardstick: "DHL costs roughly twenty
// thousand dollars, which is a typical price for a large 400gbps switch".
const ComparableSwitchCost units.USD = 20000
