// Package units defines the physical and information quantities used
// throughout the DHL reproduction, together with parsing and formatting
// helpers.
//
// The paper uses decimal (SI) data units throughout: 1 TB = 10^12 bytes,
// 1 PB = 10^15 bytes, and a 400 Gb/s link moves 50 GB/s. This package makes
// that convention explicit so that numbers like "29 PB over 400 Gb/s =
// 580,000 s" fall out exactly.
package units

import (
	"fmt"
	"math"
)

// Bytes is an information quantity in bytes. Values are float64 because the
// models routinely scale datasets by non-integral factors (the paper itself
// downscales by 1e7 for simulation).
type Bytes float64

// Decimal (SI) data units, as used by the paper.
const (
	Byte Bytes = 1
	KB   Bytes = 1e3
	MB   Bytes = 1e6
	GB   Bytes = 1e9
	TB   Bytes = 1e12
	PB   Bytes = 1e15
)

// Binary data units, provided for workloads specified in GiB (the paper
// converts 1 hour of video to 1 GiB).
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
	PiB Bytes = 1 << 50
)

// TBf returns the quantity in decimal terabytes.
func (b Bytes) TBf() float64 { return float64(b / TB) }

// GBf returns the quantity in decimal gigabytes.
func (b Bytes) GBf() float64 { return float64(b / GB) }

// String renders the quantity with an auto-selected SI prefix.
func (b Bytes) String() string {
	abs := math.Abs(float64(b))
	switch {
	case abs >= float64(PB):
		return fmt.Sprintf("%.3gPB", float64(b/PB))
	case abs >= float64(TB):
		return fmt.Sprintf("%.3gTB", float64(b/TB))
	case abs >= float64(GB):
		return fmt.Sprintf("%.3gGB", float64(b/GB))
	case abs >= float64(MB):
		return fmt.Sprintf("%.3gMB", float64(b/MB))
	case abs >= float64(KB):
		return fmt.Sprintf("%.3gKB", float64(b/KB))
	default:
		return fmt.Sprintf("%.3gB", float64(b))
	}
}

// Seconds is a duration in seconds. The simulations model tens of hours at
// sub-millisecond resolution; float64 seconds keep the arithmetic exact
// enough (2^53 µs ≈ 285 years) while matching the paper's units.
type Seconds float64

const (
	Second Seconds = 1
	Minute Seconds = 60
	Hour   Seconds = 3600
	Day    Seconds = 86400
)

// Hours returns the duration in hours.
func (s Seconds) Hours() float64 { return float64(s / Hour) }

// Days returns the duration in days.
func (s Seconds) Days() float64 { return float64(s / Day) }

// String renders the duration with an auto-selected unit.
func (s Seconds) String() string {
	abs := math.Abs(float64(s))
	switch {
	case abs >= float64(Day):
		return fmt.Sprintf("%.3gd", float64(s/Day))
	case abs >= float64(Hour):
		return fmt.Sprintf("%.3gh", float64(s/Hour))
	case abs >= float64(Minute):
		return fmt.Sprintf("%.3gmin", float64(s/Minute))
	default:
		return fmt.Sprintf("%.3gs", float64(s))
	}
}

// Joules is an energy quantity.
type Joules float64

const (
	Joule     Joules = 1
	Kilojoule Joules = 1e3
	Megajoule Joules = 1e6
	Gigajoule Joules = 1e9
	KWh       Joules = 3.6e6
)

// KJ returns the energy in kilojoules.
func (j Joules) KJ() float64 { return float64(j / Kilojoule) }

// MJ returns the energy in megajoules.
func (j Joules) MJ() float64 { return float64(j / Megajoule) }

// String renders the energy with an auto-selected unit.
func (j Joules) String() string {
	abs := math.Abs(float64(j))
	switch {
	case abs >= float64(Gigajoule):
		return fmt.Sprintf("%.3gGJ", float64(j/Gigajoule))
	case abs >= float64(Megajoule):
		return fmt.Sprintf("%.3gMJ", float64(j/Megajoule))
	case abs >= float64(Kilojoule):
		return fmt.Sprintf("%.3gkJ", float64(j/Kilojoule))
	default:
		return fmt.Sprintf("%.3gJ", float64(j))
	}
}

// Watts is a power quantity.
type Watts float64

const (
	Watt     Watts = 1
	Kilowatt Watts = 1e3
	Megawatt Watts = 1e6
)

// KW returns the power in kilowatts.
func (w Watts) KW() float64 { return float64(w / Kilowatt) }

// String renders the power with an auto-selected unit.
func (w Watts) String() string {
	abs := math.Abs(float64(w))
	switch {
	case abs >= float64(Megawatt):
		return fmt.Sprintf("%.3gMW", float64(w/Megawatt))
	case abs >= float64(Kilowatt):
		return fmt.Sprintf("%.3gkW", float64(w/Kilowatt))
	default:
		return fmt.Sprintf("%.3gW", float64(w))
	}
}

// Energy returns the energy delivered by power w over duration t.
func Energy(w Watts, t Seconds) Joules { return Joules(float64(w) * float64(t)) }

// Power returns the average power of energy j spread over duration t.
// It returns 0 for non-positive durations.
func Power(j Joules, t Seconds) Watts {
	if t <= 0 {
		return 0
	}
	return Watts(float64(j) / float64(t))
}

// BitsPerSecond is a network line rate.
type BitsPerSecond float64

const (
	Gbps BitsPerSecond = 1e9
	Tbps BitsPerSecond = 1e12
)

// BytesPerSecond converts a line rate to a byte rate.
func (r BitsPerSecond) BytesPerSecond() BytesPerSecond { return BytesPerSecond(r / 8) }

// String renders the rate.
func (r BitsPerSecond) String() string {
	if math.Abs(float64(r)) >= float64(Tbps) {
		return fmt.Sprintf("%.3gTb/s", float64(r/Tbps))
	}
	return fmt.Sprintf("%.3gGb/s", float64(r/Gbps))
}

// BytesPerSecond is a data throughput.
type BytesPerSecond float64

const (
	MBps BytesPerSecond = 1e6
	GBps BytesPerSecond = 1e9
	TBps BytesPerSecond = 1e12
)

// TransferTime returns how long moving b bytes takes at rate r.
// It returns +Inf for non-positive rates and positive sizes, and 0 for
// non-positive sizes.
func (r BytesPerSecond) TransferTime(b Bytes) Seconds {
	if b <= 0 {
		return 0
	}
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(r))
}

// String renders the throughput.
func (r BytesPerSecond) String() string {
	abs := math.Abs(float64(r))
	switch {
	case abs >= float64(TBps):
		return fmt.Sprintf("%.3gTB/s", float64(r/TBps))
	case abs >= float64(GBps):
		return fmt.Sprintf("%.3gGB/s", float64(r/GBps))
	default:
		return fmt.Sprintf("%.3gMB/s", float64(r/MBps))
	}
}

// Grams is a mass quantity. The paper discusses cart masses in grams.
type Grams float64

const (
	Gram     Grams = 1
	Kilogram Grams = 1e3
)

// Kg returns the mass in kilograms.
func (g Grams) Kg() float64 { return float64(g / Kilogram) }

// String renders the mass.
func (g Grams) String() string {
	if math.Abs(float64(g)) >= float64(Kilogram) {
		return fmt.Sprintf("%.3gkg", float64(g/Kilogram))
	}
	return fmt.Sprintf("%.3gg", float64(g))
}

// Metres is a length quantity.
type Metres float64

// MetresPerSecond is a speed quantity.
type MetresPerSecond float64

// MetresPerSecond2 is an acceleration quantity.
type MetresPerSecond2 float64

// USD is a monetary amount in US dollars.
type USD float64

// String renders the amount with a dollar sign and thousands grouping.
func (u USD) String() string {
	neg := u < 0
	v := math.Abs(float64(u))
	whole := int64(math.Round(v))
	s := groupThousands(whole)
	if neg {
		return "-$" + s
	}
	return "$" + s
}

func groupThousands(v int64) string {
	s := fmt.Sprintf("%d", v)
	n := len(s)
	if n <= 3 {
		return s
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (n-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}

// BytesPerGram is a storage density — the quantity the paper observes has
// been "quietly skyrocketing" for M.2 SSDs.
type BytesPerGram float64

// GramsPerMetre is a linear mass intensity (rail material per metre of
// track, Table VIII).
type GramsPerMetre float64

// Mass returns the mass of a length l of material at intensity i.
func (i GramsPerMetre) Mass(l Metres) Grams { return Grams(float64(i) * float64(l)) }

// USDPerKg is a commodity price rate (Table VIII quotes $/kg).
type USDPerKg float64

// Cost returns the price of mass m at rate p.
func (p USDPerKg) Cost(m Grams) USD { return USD(m.Kg() * float64(p)) }

// USDPerHour is a labor price rate.
type USDPerHour float64

// Cost returns the price of duration t at rate p.
func (p USDPerHour) Cost(t Seconds) USD { return USD(t.Hours() * float64(p)) }

// USDPerKWh is an electricity price rate.
type USDPerKWh float64

// Cost returns the price of energy e at rate p.
func (p USDPerKWh) Cost(e Joules) USD { return USD(float64(e/KWh) * float64(p)) }

// GBPerJoule expresses data-movement efficiency as the paper does (GB/J).
func GBPerJoule(moved Bytes, spent Joules) float64 {
	if spent <= 0 {
		return math.Inf(1)
	}
	return moved.GBf() / float64(spent)
}

// Ratio is a dimensionless improvement factor (e.g. "376.1x").
type Ratio float64

// String renders the ratio in the paper's "N.Nx" style.
func (r Ratio) String() string { return fmt.Sprintf("%.1fx", float64(r)) }
