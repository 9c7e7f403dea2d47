// Package core implements the paper's primary contribution: the analytical
// Data Centre Hyperloop (DHL) model of §IV and §V — single-launch metrics
// (Table VI left block), bulk-transfer comparisons against optical
// networking (Table VI right block), the design-space sweep, and the
// minimum-specification crossover analysis (§V-E).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cart"
	"repro/internal/netmodel"
	"repro/internal/physics"
	"repro/internal/units"
)

// Paper defaults (Table V, bold entries).
const (
	// DefaultDockTime is the pessimistic per-operation docking time: 3 s to
	// dock, 3 s to undock.
	DefaultDockTime units.Seconds = 3
	// DefaultAcceleration is 1000 m/s².
	DefaultAcceleration units.MetresPerSecond2 = 1000
	// DefaultLength is 500 m.
	DefaultLength units.Metres = 500
	// DefaultMaxSpeed is 200 m/s.
	DefaultMaxSpeed units.MetresPerSecond = 200
)

// Config is a DHL deployment configuration.
type Config struct {
	// Cart is the payload vehicle.
	Cart *cart.Cart
	// Length of the track between the two endpoints.
	Length units.Metres
	// MaxSpeed of the cart.
	MaxSpeed units.MetresPerSecond
	// Acceleration of the LIM ramps.
	Acceleration units.MetresPerSecond2
	// LIM is the accelerator/brake model.
	LIM physics.LIM
	// DockTime and UndockTime are the endpoint handling times.
	DockTime, UndockTime units.Seconds
	// TimeModel selects paper vs exact ramp accounting.
	TimeModel physics.TimeModel
}

// DefaultConfig is the paper's bold configuration: 256 TB cart, 500 m,
// 200 m/s, 1000 m/s², 75 % LIM, 3 s dock + 3 s undock.
func DefaultConfig() Config {
	return Config{
		Cart:         cart.MustNew(cart.DefaultConfig()),
		Length:       DefaultLength,
		MaxSpeed:     DefaultMaxSpeed,
		Acceleration: DefaultAcceleration,
		LIM:          physics.DefaultLIM(),
		DockTime:     DefaultDockTime,
		UndockTime:   DefaultDockTime,
		TimeModel:    physics.TimeModelPaper,
	}
}

// With returns a copy with the given speed, length, and cart SSD count.
func (c Config) With(speed units.MetresPerSecond, length units.Metres, numSSDs int) Config {
	c.MaxSpeed = speed
	c.Length = length
	c.Cart = cart.MustNew(cart.DefaultConfig().WithSSDs(numSSDs))
	return c
}

// Errors returned by validation.
var (
	ErrNoCart = errors.New("core: config needs a cart")
)

// Validate checks the configuration is physically realisable.
func (c Config) Validate() error {
	if c.Cart == nil {
		return ErrNoCart
	}
	if c.DockTime < 0 || c.UndockTime < 0 {
		return fmt.Errorf("core: docking times must be non-negative (dock=%v undock=%v)",
			c.DockTime, c.UndockTime)
	}
	if c.LIM.Efficiency <= 0 || c.LIM.Efficiency > 1 {
		return fmt.Errorf("core: %w", physics.ErrBadEfficiency)
	}
	_, err := physics.NewProfile(c.Length, c.MaxSpeed, c.Acceleration)
	return err
}

// profile returns the validated motion profile.
func (c Config) profile() (physics.Profile, error) {
	if err := c.Validate(); err != nil {
		return physics.Profile{}, err
	}
	return physics.NewProfile(c.Length, c.MaxSpeed, c.Acceleration)
}

// String summarises the configuration in the paper's DHL-X-Y-Z notation.
func (c Config) String() string {
	capTB := 0.0
	if c.Cart != nil {
		capTB = c.Cart.Capacity().TBf()
	}
	return fmt.Sprintf("DHL-%g-%g-%g", float64(c.MaxSpeed), float64(c.Length), capTB)
}

// LaunchMetrics are the paper's five single-launch metrics (§IV-D, Table VI
// middle block).
type LaunchMetrics struct {
	Config Config

	// Energy to launch and brake one cart between the endpoints.
	Energy units.Joules
	// Time to undock, accelerate, cruise, brake, and dock.
	Time units.Seconds
	// Bandwidth is the embodied bandwidth: cart capacity / Time (no
	// pipelining, conservative).
	Bandwidth units.BytesPerSecond
	// PeakPower during acceleration.
	PeakPower units.Watts
	// Efficiency is data moved per energy, in GB/J.
	Efficiency float64
}

// Launch computes the single-launch metrics.
func Launch(c Config) (LaunchMetrics, error) {
	p, err := c.profile()
	if err != nil {
		return LaunchMetrics{}, err
	}
	m := c.Cart.TotalMass
	energy := c.LIM.LaunchEnergy(m, c.MaxSpeed)
	t := c.UndockTime + p.TransitTime(c.TimeModel) + c.DockTime
	cap := c.Cart.Capacity()
	return LaunchMetrics{
		Config:     c,
		Energy:     energy,
		Time:       t,
		Bandwidth:  units.BytesPerSecond(float64(cap) / float64(t)),
		PeakPower:  c.LIM.PeakPower(m, c.Acceleration, c.MaxSpeed),
		Efficiency: units.GBPerJoule(cap, energy),
	}, nil
}

// AveragePower is the launch energy spread over the launch time — the
// quantity the paper's simulation budget (1.75 kW for the default config) is
// built from.
func (l LaunchMetrics) AveragePower() units.Watts {
	return units.Power(l.Energy, l.Time)
}

// String renders the metrics like a Table VI row.
func (l LaunchMetrics) String() string {
	return fmt.Sprintf("%v: E=%v t=%v BW=%v P=%v eff=%.1fGB/J",
		l.Config, l.Energy, l.Time, l.Bandwidth, l.PeakPower, l.Efficiency)
}

// BulkTransfer is the analytical cost of moving a dataset with repeated cart
// trips (§V-B).
type BulkTransfer struct {
	Launch LaunchMetrics
	// Dataset moved.
	Dataset units.Bytes
	// DeliveryTrips is the number of loaded cart deliveries
	// (ceil(dataset / cart)). For 29 PB this is 227/114/57 for
	// 128/256/512 TB carts.
	DeliveryTrips int
	// TotalTrips includes the paper's return-trip doubling: the endpoint's
	// limited dock capacity forces carts back to the library, so
	// TotalTrips = ceil(2 × dataset / cart).
	TotalTrips int
	// Time and Energy for the whole transfer.
	Time   units.Seconds
	Energy units.Joules
}

// Transfer computes the bulk-transfer cost of moving dataset bytes.
func Transfer(c Config, dataset units.Bytes) (BulkTransfer, error) {
	l, err := Launch(c)
	if err != nil {
		return BulkTransfer{}, err
	}
	if dataset <= 0 {
		return BulkTransfer{}, fmt.Errorf("core: dataset must be positive, got %v", dataset)
	}
	capB := float64(l.Config.Cart.Capacity())
	deliveries := int(math.Ceil(float64(dataset) / capB))
	total := int(math.Ceil(2 * float64(dataset) / capB))
	return BulkTransfer{
		Launch:        l,
		Dataset:       dataset,
		DeliveryTrips: deliveries,
		TotalTrips:    total,
		Time:          units.Seconds(float64(total) * float64(l.Time)),
		Energy:        units.Joules(float64(total) * float64(l.Energy)),
	}, nil
}

// Comparison relates a DHL bulk transfer to an optical-network scenario.
type Comparison struct {
	Transfer BulkTransfer
	Scenario netmodel.Scenario
	// NetworkTime and NetworkEnergy of the optical transfer.
	NetworkTime   units.Seconds
	NetworkEnergy units.Joules
	// TimeSpeedup = NetworkTime / DHL time.
	TimeSpeedup units.Ratio
	// EnergyReduction = NetworkEnergy / DHL energy.
	EnergyReduction units.Ratio
}

// Compare evaluates a DHL transfer against one network scenario.
func Compare(tr BulkTransfer, s netmodel.Scenario) Comparison {
	nt := netmodel.TransferTime(tr.Dataset)
	ne := s.Power().Energy(tr.Dataset)
	return Comparison{
		Transfer:        tr,
		Scenario:        s,
		NetworkTime:     nt,
		NetworkEnergy:   ne,
		TimeSpeedup:     units.Ratio(float64(nt) / float64(tr.Time)),
		EnergyReduction: units.Ratio(float64(ne) / float64(tr.Energy)),
	}
}

// CompareAll evaluates the transfer against every scenario, in paper order.
func CompareAll(tr BulkTransfer) []Comparison {
	out := make([]Comparison, 0, 5)
	for _, s := range netmodel.Scenarios() {
		out = append(out, Compare(tr, s))
	}
	return out
}

// PaperDataset is the paper's running example: Meta's 29 PB ML dataset.
const PaperDataset = 29 * units.PB
