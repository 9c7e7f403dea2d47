// Package netmodel implements the paper's optical data-centre network energy
// model (§II-B/C, Figure 2, Table III): a component power catalogue, a
// three-tier fat-tree topology with routing, and the five evaluated transfer
// scenarios A0, A1, A2, B and C.
package netmodel

import (
	"fmt"

	"repro/internal/units"
)

// LineRate is the evaluated link speed (400 Gb/s throughout the paper).
const LineRate units.BitsPerSecond = 400 * units.Gbps

// LinkBandwidth is the byte throughput of one 400 Gb/s link (50 GB/s).
func LinkBandwidth() units.BytesPerSecond { return LineRate.BytesPerSecond() }

// Component power catalogue (Table III; bold rows are the ones the paper's
// energy numbers are built from — see DESIGN.md §2 for the inversion).
const (
	// TransceiverPower: Broadcom 400G QSFP-DD optical transceiver, 12 W.
	TransceiverPower units.Watts = 12
	// NICPower: the bold 2×200 GbE NIC, operated at 400 Gb/s. The paper's
	// route energies invert to 19.8 W per NIC (within the 17–23.3 W range).
	NICPower units.Watts = 19.8
)

// SwitchSpec is a Table III switch row.
type SwitchSpec struct {
	Name         string
	PortRate     units.BitsPerSecond
	Ports        int
	PowerPassive units.Watts // chassis, all-passive cabling
	PowerActive  units.Watts // chassis, all-active cabling
}

// PerPortPassive is the per-port power with passive cables.
func (s SwitchSpec) PerPortPassive() units.Watts {
	return units.Watts(float64(s.PowerPassive) / float64(s.Ports))
}

// PerPortActive is the per-port power with active cables.
func (s SwitchSpec) PerPortActive() units.Watts {
	return units.Watts(float64(s.PowerActive) / float64(s.Ports))
}

// Switch catalogue from Table III.
var (
	// QM9700 is the bold NVIDIA 32×400G switch used by the evaluation.
	QM9700 = SwitchSpec{Name: "NVIDIA QM9700", PortRate: LineRate, Ports: 32,
		PowerPassive: 747, PowerActive: 1720}
	// Cisco9364D is the Cisco Nexus 9364D-GX2A 64×400G switch.
	Cisco9364D = SwitchSpec{Name: "Cisco 9364D-GX2A", PortRate: LineRate, Ports: 64,
		PowerPassive: 1324, PowerActive: 3000}
)

// PortKind classifies a traversed switch port by its cabling.
type PortKind int

const (
	// PortPassive is a port on a passive copper link (node ↔ ToR).
	PortPassive PortKind = iota
	// PortActive is a port on an active optical link (switch ↔ switch).
	PortActive
)

// String implements fmt.Stringer.
func (k PortKind) String() string {
	if k == PortPassive {
		return "passive"
	}
	return "active"
}

// RoutePower is the decomposed steady-state power of a route.
type RoutePower struct {
	Transceivers int
	NICs         int
	PassivePorts int
	ActivePorts  int
}

// Total is the route's power draw while a transfer is in flight. Switch
// ports draw the QM9700's chassis power divided per port.
func (r RoutePower) Total() units.Watts {
	return units.Watts(float64(r.Transceivers)*float64(TransceiverPower) +
		float64(r.NICs)*float64(NICPower) +
		float64(r.PassivePorts)*float64(QM9700.PerPortPassive()) +
		float64(r.ActivePorts)*float64(QM9700.PerPortActive()))
}

// Energy is the energy to move data over the route at the line rate.
func (r RoutePower) Energy(data units.Bytes) units.Joules {
	return units.Energy(r.Total(), TransferTime(data))
}

// String summarises the decomposition.
func (r RoutePower) String() string {
	return fmt.Sprintf("route{%d xcvr, %d NIC, %d passive, %d active = %v}",
		r.Transceivers, r.NICs, r.PassivePorts, r.ActivePorts, r.Total())
}

// TransferTime is the serial transfer time of data over one 400 Gb/s link.
func TransferTime(data units.Bytes) units.Seconds {
	return LinkBandwidth().TransferTime(data)
}

// Efficiency is the route's data-movement efficiency in GB/J for the given
// transfer size.
func (r RoutePower) Efficiency(data units.Bytes) float64 {
	return units.GBPerJoule(data, r.Energy(data))
}
