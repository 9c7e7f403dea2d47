package core

import (
	"errors"
	"fmt"
	"math"

	"repro/bench/_twin/internal/units"
)

// Pipelined bulk transfers (§V-B): the headline Table VI numbers
// conservatively serialise trips and double them for returns. The paper
// notes both limits can be lifted — "while processing a cart, launch
// different ones" and "with two unidirectional rails, we could avoid the
// return travel expense". This file provides the closed form for those
// refinements; the event-driven simulation (internal/dhlsys) reproduces the
// same behaviour dynamically.

// PipelineOptions configures the refined transfer model.
type PipelineOptions struct {
	// DualRail: dedicated outbound and inbound rails (§VI). With a single
	// rail, a cart's return blocks the next launch, so the delivery cadence
	// is a full round trip; with dual rails it is one one-way trip.
	DualRail bool
	// DockStations at the endpoint, for overlapping endpoint reads.
	DockStations int
	// ReadRate is the endpoint's per-cart read bandwidth; 0 skips reading
	// (pure delivery, as in Table VI).
	ReadRate units.BytesPerSecond
}

// PipelinedTransfer is the refined transfer cost.
type PipelinedTransfer struct {
	Base BulkTransfer
	Opts PipelineOptions
	// Cadence between successive cart deliveries in steady state.
	Cadence units.Seconds
	// Time for the whole transfer (first-cart latency + pipelined
	// deliveries + trailing read).
	Time units.Seconds
	// Bandwidth delivered.
	Bandwidth units.BytesPerSecond
	// Speedup over the conservative Table VI accounting.
	Speedup units.Ratio
}

// TransferPipelined computes the §V-B refined transfer.
func TransferPipelined(c Config, dataset units.Bytes, opts PipelineOptions) (PipelinedTransfer, error) {
	if opts.DockStations < 1 {
		return PipelinedTransfer{}, errors.New("core: need at least one docking station")
	}
	if opts.ReadRate < 0 {
		return PipelinedTransfer{}, fmt.Errorf("core: negative read rate %v", opts.ReadRate)
	}
	base, err := Transfer(c, dataset)
	if err != nil {
		return PipelinedTransfer{}, err
	}
	oneWay := base.Launch.Time
	railCadence := oneWay
	if !opts.DualRail {
		railCadence = 2 * oneWay
	}
	var readTime units.Seconds
	if opts.ReadRate > 0 {
		readTime = opts.ReadRate.TransferTime(c.Cart.Capacity())
	}
	// Reads overlap across stations: S stations serve batches of S carts in
	// parallel, so the read-side cadence is readTime / stations.
	readCadence := units.Seconds(float64(readTime) / float64(opts.DockStations))
	cadence := railCadence
	if readCadence > cadence {
		cadence = readCadence
	}
	n := float64(base.DeliveryTrips)
	// Completion: after the first cart lands, either the rail drains the
	// deliveries (last read trailing) or the stations batch the reads —
	// whichever binds.
	railBound := units.Seconds((n-1)*float64(railCadence)) + readTime
	batches := math.Ceil(n / float64(opts.DockStations))
	readBound := units.Seconds(batches * float64(readTime))
	tail := railBound
	if readBound > tail {
		tail = readBound
	}
	total := oneWay + tail
	pt := PipelinedTransfer{
		Base:      base,
		Opts:      opts,
		Cadence:   cadence,
		Time:      total,
		Bandwidth: units.BytesPerSecond(float64(dataset) / float64(total)),
		Speedup:   units.Ratio(float64(base.Time) / float64(total)),
	}
	return pt, nil
}

// CartsInFlight is the fleet size needed to sustain the pipeline: one cart
// per cadence slot over a full cart cycle (out, read, back).
func (p PipelinedTransfer) CartsInFlight() int {
	oneWay := float64(p.Base.Launch.Time)
	var readTime float64
	if p.Opts.ReadRate > 0 {
		readTime = float64(p.Opts.ReadRate.TransferTime(p.Base.Launch.Config.Cart.Capacity()))
	}
	cycle := 2*oneWay + readTime
	return int(math.Ceil(cycle / float64(p.Cadence)))
}
