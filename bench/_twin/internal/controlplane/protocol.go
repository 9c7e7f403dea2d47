// Package controlplane exposes the DHL software API of §III-D over the
// standard network, as the paper prescribes: "Adopting a DHL in a data
// centre also relies on management software to coordinate SSDs' movement.
// Software controls access through an API that is accessed through the
// standard network."
//
// The wire protocol is newline-delimited JSON over TCP: one request object
// per line, one response object per line, multiple exchanges per
// connection. The server wraps a dhlsys.System; each request drives the
// simulation to completion of the operation and reports the simulated
// timing, so a client sees exactly what a rack's storage-management daemon
// would.
//
// The server is overload-hardened (see DESIGN.md §11): requests pass an
// admission controller (internal/admit) with bounded queues, a token
// bucket, priority classes, and brownout shedding; shed requests are
// answered CodeServerBusy with a retry_after_s hint instead of queueing
// unboundedly, and status/metrics reads degrade to a cached snapshot
// (stale=true) while the simulation is saturated.
package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/bench/_twin/internal/dhlsys"
	"repro/bench/_twin/internal/telemetry"
	"repro/bench/_twin/internal/units"
)

// Op is a §III-D API command.
type Op string

// The four paper commands plus two introspection ops.
const (
	OpOpen   Op = "open"
	OpClose  Op = "close"
	OpRead   Op = "read"
	OpWrite  Op = "write"
	OpStatus Op = "status"
	// OpMetrics returns the deployment's telemetry snapshot rendered as
	// Prometheus text exposition (Response.Text). It fails with
	// CodeNoTelemetry when the wrapped system was built without a
	// telemetry set.
	OpMetrics Op = "metrics"
)

// Request is one client command.
type Request struct {
	Op   Op  `json:"op"`
	Cart int `json:"cart,omitempty"`
	// Bytes for read/write ops.
	Bytes float64 `json:"bytes,omitempty"`
}

// Validate checks the request shape.
func (r Request) Validate() error {
	switch r.Op {
	case OpOpen, OpClose, OpStatus, OpMetrics:
		return nil
	case OpRead, OpWrite:
		if r.Bytes <= 0 {
			return fmt.Errorf("controlplane: %s needs positive bytes, got %v", r.Op, r.Bytes)
		}
		return nil
	default:
		return fmt.Errorf("controlplane: unknown op %q", r.Op)
	}
}

// DecodeRequest parses one newline-delimited request frame. It rejects
// frames that carry trailing data after the JSON object (a desynchronised
// or malicious stream) and never panics on malformed input
// (FuzzDecodeRequest pins that).
func DecodeRequest(frame []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(frame))
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("controlplane: malformed request: %v", err)
	}
	if rest := bytes.TrimSpace(frame[int(dec.InputOffset()):]); len(rest) > 0 {
		return Request{}, fmt.Errorf("controlplane: trailing data after request object")
	}
	return req, nil
}

// Response is the server's reply.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the structured error code (CodeForError) when OK is false.
	Code string `json:"code,omitempty"`
	// RetryAfterS hints, on CodeServerBusy responses, how long a
	// well-behaved client should wait before retrying (wall seconds,
	// derived from the admission controller's backlog estimate).
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
	// Stale marks a status/metrics response served from the cached
	// snapshot because the simulation was saturated; CacheAgeS is that
	// snapshot's age in wall seconds.
	Stale     bool    `json:"stale,omitempty"`
	CacheAgeS float64 `json:"cache_age_s,omitempty"`
	// SimTime is the simulation clock after the operation, seconds.
	SimTime float64 `json:"sim_time"`
	// OpSeconds is the simulated duration of this operation.
	OpSeconds float64 `json:"op_seconds,omitempty"`
	// Stats is included for status requests.
	Stats *StatsJSON `json:"stats,omitempty"`
	// Metrics is the telemetry snapshot, included for status requests when
	// the wrapped system carries a telemetry set.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
	// Text carries the Prometheus exposition for metrics requests.
	Text string `json:"text,omitempty"`
}

// StatsJSON mirrors dhlsys.Stats plus the availability report for the wire.
type StatsJSON struct {
	Launches     int     `json:"launches"`
	DockOps      int     `json:"dock_ops"`
	EnergyJ      float64 `json:"energy_j"`
	BytesRead    float64 `json:"bytes_read"`
	BytesWritten float64 `json:"bytes_written"`
	FailuresSeen int     `json:"failures_seen"`
	Denied       int     `json:"denied"`
	Queued       int     `json:"queued"`
	// Fault-recovery counters (§III-D amelioration).
	DegradedLaunches int     `json:"degraded_launches,omitempty"`
	DegradedReads    int     `json:"degraded_reads,omitempty"`
	DegradedBytes    float64 `json:"degraded_bytes,omitempty"`
	Stalls           int     `json:"stalls,omitempty"`
	StallTimeS       float64 `json:"stall_time_s,omitempty"`
	Reroutes         int     `json:"reroutes,omitempty"`
	Timeouts         int     `json:"timeouts,omitempty"`
	Backoffs         int     `json:"backoffs,omitempty"`
	BackoffWaitS     float64 `json:"backoff_wait_s,omitempty"`
	// Availability summary over the run so far.
	FaultsInjected int     `json:"faults_injected"`
	DowntimeS      float64 `json:"downtime_s"`
	Availability   float64 `json:"availability"`
}

func statsJSON(rep dhlsys.AvailabilityReport) *StatsJSON {
	s := rep.Stats
	return &StatsJSON{
		Launches:         s.Launches,
		DockOps:          s.DockOps,
		EnergyJ:          float64(s.Energy),
		BytesRead:        float64(s.BytesRead),
		BytesWritten:     float64(s.BytesWritten),
		FailuresSeen:     s.FailuresSeen,
		Denied:           s.Denied,
		Queued:           s.Queued,
		DegradedLaunches: s.DegradedLaunches,
		DegradedReads:    s.DegradedReads,
		DegradedBytes:    float64(s.DegradedBytes),
		Stalls:           s.Stalls,
		StallTimeS:       float64(s.StallTime),
		Reroutes:         s.Reroutes,
		Timeouts:         s.Timeouts,
		Backoffs:         s.Backoffs,
		BackoffWaitS:     float64(s.BackoffWait),
		FaultsInjected:   rep.Faults.Total,
		DowntimeS:        float64(rep.Downtime),
		Availability:     rep.Availability,
	}
}

// bytesOf converts the wire size.
func bytesOf(r Request) units.Bytes { return units.Bytes(r.Bytes) }
