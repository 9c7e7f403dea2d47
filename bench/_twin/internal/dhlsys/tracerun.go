package dhlsys

import (
	"fmt"

	"repro/bench/_twin/internal/units"
	"repro/bench/_twin/internal/workload"
)

// Trace replay: feed a workload.Trace (bulk backups, physics bursts, ML
// epochs — §II-D) through the system and measure queueing. Transfers are
// served in arrival order; a transfer whose predecessor is still moving
// waits, which is exactly the §VI contention the multi-stop and dual-rail
// refinements target.

// TraceEntryResult is the outcome of one replayed transfer.
type TraceEntryResult struct {
	Label   string
	Size    units.Bytes
	Arrival units.Seconds
	// Start is when the DHL began serving the transfer (≥ Arrival).
	Start units.Seconds
	// Wait is Start − Arrival.
	Wait units.Seconds
	// Duration of the transfer itself.
	Duration units.Seconds
	// Done is Start + Duration.
	Done units.Seconds
	// Deliveries and Energy for this transfer.
	Deliveries int
	Energy     units.Joules
}

// TraceResult summarises a replay.
type TraceResult struct {
	Entries []TraceEntryResult
	// MakeSpan is when the last transfer finished.
	MakeSpan units.Seconds
	// TotalWait across transfers.
	TotalWait units.Seconds
	// TotalEnergy across transfers.
	TotalEnergy units.Joules
	// Utilisation is busy time / makespan.
	Utilisation float64
}

// ReplayTrace serves each transfer of the trace in order, respecting
// arrival times. ReadAtEndpoint applies to every transfer.
func (s *System) ReplayTrace(tr workload.Trace, readAtEndpoint bool) (TraceResult, error) {
	if err := tr.Validate(); err != nil {
		return TraceResult{}, err
	}
	if len(tr) == 0 {
		return TraceResult{}, fmt.Errorf("dhlsys: empty trace")
	}
	var res TraceResult
	var busy units.Seconds
	clock := s.Engine.Now()
	for _, x := range tr {
		start := x.At
		if clock > start {
			start = clock
		}
		// Idle the engine forward to the start time.
		s.Engine.RunUntil(start)
		sh, err := s.Shuttle(ShuttleOptions{Dataset: x.Size, ReadAtEndpoint: readAtEndpoint})
		if err != nil {
			return res, fmt.Errorf("dhlsys: transfer %q: %w", x.Label, err)
		}
		e := TraceEntryResult{
			Label:      x.Label,
			Size:       x.Size,
			Arrival:    x.At,
			Start:      start,
			Wait:       start - x.At,
			Duration:   sh.Duration,
			Done:       start + sh.Duration,
			Deliveries: sh.Deliveries,
			Energy:     sh.Energy,
		}
		res.Entries = append(res.Entries, e)
		res.TotalWait += e.Wait
		res.TotalEnergy += e.Energy
		busy += e.Duration
		clock = e.Done
	}
	res.MakeSpan = clock
	if clock > 0 {
		res.Utilisation = float64(busy) / float64(clock)
	}
	return res, nil
}
