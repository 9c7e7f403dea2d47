// Package controlplane exposes the DHL software API of §III-D over the
// standard network, as the paper prescribes: "Adopting a DHL in a data
// centre also relies on management software to coordinate SSDs' movement.
// Software controls access through an API that is accessed through the
// standard network."
//
// The wire protocol is newline-delimited JSON over TCP: one request object
// per line, one response object per line, multiple exchanges per
// connection; this file alone knows its format (see "The wire codec"
// below). The server wraps a dhlsys.System; each request drives the
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
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/dhlsys"
	"repro/internal/telemetry"
	"repro/internal/units"
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

// Validate checks the request shape: Bytes is finite on every op, and
// positive on read and write.
func (r Request) Validate() error {
	if math.IsInf(r.Bytes, 0) || math.IsNaN(r.Bytes) {
		return fmt.Errorf("controlplane: %s bytes %v is not finite", r.Op, r.Bytes)
	}
	switch r.Op {
	case OpOpen, OpClose, OpStatus, OpMetrics:
		return nil
	case OpRead, OpWrite:
		if !(r.Bytes > 0) {
			return fmt.Errorf("controlplane: %s needs positive bytes, got %v", r.Op, r.Bytes)
		}
		return nil
	default:
		return fmt.Errorf("controlplane: unknown op %q", r.Op)
	}
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

// statsJSON reads only Faults.Total of the fault summary, so callers pass
// dhlsys.System.ReportTotals, which leaves the per-kind rows out.
func statsJSON(rep dhlsys.AvailabilityReport) StatsJSON {
	s := rep.Stats
	return StatsJSON{
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

// The wire codec.
//
// Every frame is exactly what encoding/json's Encoder writes for the value:
// fields in struct order, omitempty honoured, <, > and & escaped, floats
// in its format, and a trailing newline. Nearly every frame the server and
// its clients exchange is in the canonical subset, which this file writes
// without reflection or allocation, and parses by hand:
//
//   - a request whose op needs no escaping and whose size is finite;
//   - a reply whose error and code need no escaping, whose floats are all
//     finite, whose metric names need no escaping, and whose text is ASCII.
//     That covers op replies, status replies (stats and the telemetry
//     snapshot) and metrics replies (the Prometheus text, written with
//     json.Encoder's escapes).
//
// A parsed frame is canonical when its keys are exact, in struct order,
// each at most once, with every non-omitempty key of stats and snapshot
// objects present; its strings are printable ASCII without escapes, except
// the text, which may hold 0x7f and exactly the escapes the encoder writes;
// its arrays are non-empty, except a histogram's buckets, which may also
// be [] or null; its numbers fit their fields; and only JSON whitespace
// follows the object (and, for a request, its op is one of the six Op
// constants). Everything else goes through encoding/json: other key
// orders, whitespace inside the object, other escapes (\u2028, \/,
// uppercase hex), non-ASCII bytes, empty sections, non-finite floats. That
// fallback stays: it is the only path for those inputs, and it is the
// reference the fuzz and property tests hold the hand-written paths to.

// AppendRequest appends req's frame, newline included, to dst. A request
// encoding/json rejects (a NaN or infinite size) returns its error and
// dst unchanged.
//
//dhllint:hotpath
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	if !plain(string(req.Op)) || !finite(req.Bytes) {
		//dhllint:allow allocflow -- fallback for non-canonical requests; the canonical path below does not allocate
		return appendJSON(dst, req)
	}
	dst = append(dst, `{"op":"`...)
	dst = append(dst, req.Op...)
	dst = append(dst, '"')
	dst = appendOptInt(dst, `,"cart":`, req.Cart)
	dst = appendOptFloat(dst, `,"bytes":`, req.Bytes)
	dst = append(dst, "}\n"...)
	return dst, nil
}

// AppendResponse appends resp's frame, newline included, to dst. A reply
// encoding/json rejects (a NaN or infinite float) returns its error and
// dst unchanged.
//
//dhllint:hotpath
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	if !plain(resp.Error) || !plain(resp.Code) ||
		!finite(resp.RetryAfterS) || !finite(resp.CacheAgeS) ||
		!finite(resp.SimTime) || !finite(resp.OpSeconds) ||
		(resp.Stats != nil && !statsCanonical(resp.Stats)) ||
		(resp.Metrics != nil && !snapshotCanonical(resp.Metrics)) ||
		!ascii(resp.Text) {
		//dhllint:allow allocflow -- fallback for non-canonical replies; the canonical path below does not allocate
		return appendJSON(dst, resp)
	}
	dst = append(dst, `{"ok":`...)
	dst = strconv.AppendBool(dst, resp.OK)
	if resp.Error != "" {
		dst = append(dst, `,"error":"`...)
		dst = append(dst, resp.Error...)
		dst = append(dst, '"')
	}
	if resp.Code != "" {
		dst = append(dst, `,"code":"`...)
		dst = append(dst, resp.Code...)
		dst = append(dst, '"')
	}
	dst = appendOptFloat(dst, `,"retry_after_s":`, resp.RetryAfterS)
	if resp.Stale {
		dst = append(dst, `,"stale":true`...)
	}
	dst = appendOptFloat(dst, `,"cache_age_s":`, resp.CacheAgeS)
	dst = append(dst, `,"sim_time":`...)
	dst = appendFloat(dst, resp.SimTime)
	dst = appendOptFloat(dst, `,"op_seconds":`, resp.OpSeconds)
	if resp.Stats != nil {
		dst = append(dst, `,"stats":`...)
		dst = appendStats(dst, resp.Stats)
	}
	if resp.Metrics != nil {
		dst = append(dst, `,"metrics":`...)
		dst = appendSnapshot(dst, resp.Metrics)
	}
	if resp.Text != "" {
		dst = append(dst, `,"text":`...)
		dst = appendText(dst, resp.Text)
	}
	dst = append(dst, "}\n"...)
	return dst, nil
}

// statsCanonical reports whether every float in s is finite.
func statsCanonical(s *StatsJSON) bool {
	return finite(s.EnergyJ) && finite(s.BytesRead) && finite(s.BytesWritten) &&
		finite(s.DegradedBytes) && finite(s.StallTimeS) && finite(s.BackoffWaitS) &&
		finite(s.DowntimeS) && finite(s.Availability)
}

// snapshotCanonical reports whether every name in m is plain and every
// float finite.
func snapshotCanonical(m *telemetry.Snapshot) bool {
	for _, c := range m.Counters {
		if !plain(c.Name) || !finite(c.Value) {
			return false
		}
	}
	for _, g := range m.Gauges {
		if !plain(g.Name) || !finite(g.Value) {
			return false
		}
	}
	for _, h := range m.Histograms {
		if !plain(h.Name) || !finite(h.Sum) {
			return false
		}
		for _, b := range h.Buckets {
			if !finite(b.UpperBound) {
				return false
			}
		}
	}
	return true
}

// appendStats writes s's object: every field in struct order, the
// fault-recovery ones only when non-zero.
func appendStats(dst []byte, s *StatsJSON) []byte {
	dst = append(dst, `{"launches":`...)
	dst = strconv.AppendInt(dst, int64(s.Launches), 10)
	dst = append(dst, `,"dock_ops":`...)
	dst = strconv.AppendInt(dst, int64(s.DockOps), 10)
	dst = append(dst, `,"energy_j":`...)
	dst = appendFloat(dst, s.EnergyJ)
	dst = append(dst, `,"bytes_read":`...)
	dst = appendFloat(dst, s.BytesRead)
	dst = append(dst, `,"bytes_written":`...)
	dst = appendFloat(dst, s.BytesWritten)
	dst = append(dst, `,"failures_seen":`...)
	dst = strconv.AppendInt(dst, int64(s.FailuresSeen), 10)
	dst = append(dst, `,"denied":`...)
	dst = strconv.AppendInt(dst, int64(s.Denied), 10)
	dst = append(dst, `,"queued":`...)
	dst = strconv.AppendInt(dst, int64(s.Queued), 10)
	dst = appendOptInt(dst, `,"degraded_launches":`, s.DegradedLaunches)
	dst = appendOptInt(dst, `,"degraded_reads":`, s.DegradedReads)
	dst = appendOptFloat(dst, `,"degraded_bytes":`, s.DegradedBytes)
	dst = appendOptInt(dst, `,"stalls":`, s.Stalls)
	dst = appendOptFloat(dst, `,"stall_time_s":`, s.StallTimeS)
	dst = appendOptInt(dst, `,"reroutes":`, s.Reroutes)
	dst = appendOptInt(dst, `,"timeouts":`, s.Timeouts)
	dst = appendOptInt(dst, `,"backoffs":`, s.Backoffs)
	dst = appendOptFloat(dst, `,"backoff_wait_s":`, s.BackoffWaitS)
	dst = append(dst, `,"faults_injected":`...)
	dst = strconv.AppendInt(dst, int64(s.FaultsInjected), 10)
	dst = append(dst, `,"downtime_s":`...)
	dst = appendFloat(dst, s.DowntimeS)
	dst = append(dst, `,"availability":`...)
	dst = appendFloat(dst, s.Availability)
	dst = append(dst, '}')
	return dst
}

// appendOptInt writes an omitempty int field: key, then n, unless n is 0.
func appendOptInt(dst []byte, key string, n int) []byte {
	if n != 0 {
		dst = append(dst, key...)
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return dst
}

// appendOptFloat writes an omitempty float field: key, then f, unless f
// is zero.
func appendOptFloat(dst []byte, key string, f float64) []byte {
	if f != 0 {
		dst = append(dst, key...)
		dst = appendFloat(dst, f)
	}
	return dst
}

// appendSnapshot writes m's object. Each section is left out when empty;
// a histogram's buckets are null when nil.
func appendSnapshot(dst []byte, m *telemetry.Snapshot) []byte {
	dst = append(dst, '{')
	if len(m.Counters) > 0 {
		dst = append(dst, `"counters":[`...)
		for i, c := range m.Counters {
			dst = appendPoint(dst, i, c.Name, c.Value)
		}
		dst = append(dst, ']')
	}
	if len(m.Gauges) > 0 {
		if len(m.Counters) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"gauges":[`...)
		for i, g := range m.Gauges {
			dst = appendPoint(dst, i, g.Name, g.Value)
		}
		dst = append(dst, ']')
	}
	if len(m.Histograms) > 0 {
		if len(m.Counters) > 0 || len(m.Gauges) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"histograms":[`...)
		for i := range m.Histograms {
			h := &m.Histograms[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":"`...)
			dst = append(dst, h.Name...)
			dst = append(dst, `","buckets":`...)
			if h.Buckets == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for j, b := range h.Buckets {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = append(dst, `{"le":`...)
					dst = appendFloat(dst, b.UpperBound)
					dst = append(dst, `,"count":`...)
					dst = strconv.AppendUint(dst, b.Count, 10)
					dst = append(dst, '}')
				}
				dst = append(dst, ']')
			}
			dst = append(dst, `,"sum":`...)
			dst = appendFloat(dst, h.Sum)
			dst = append(dst, `,"count":`...)
			dst = strconv.AppendUint(dst, h.Count, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	return dst
}

// appendPoint writes the i-th element of a counters or gauges array.
func appendPoint(dst []byte, i int, name string, value float64) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"name":"`...)
	dst = append(dst, name...)
	dst = append(dst, `","value":`...)
	dst = appendFloat(dst, value)
	dst = append(dst, '}')
	return dst
}

// appendText writes the ASCII string s as a JSON string with
// json.Encoder's escapes.
func appendText(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		e := textEscape[s[i]]
		if e == 0 {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch e {
		case 'u':
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[s[i]>>4], hexDigits[s[i]&0xf])
		default:
			dst = append(dst, '\\', e)
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

const hexDigits = "0123456789abcdef"

// nonASCII marks the bytes from 0x80 up in textEscape.
const nonASCII = 0x80

// textEscape holds, for each ASCII byte json.Encoder escapes, the letter
// after its backslash: the byte itself for a quote or backslash, b, f, n,
// r or t for the short control escapes, and u for \u00XX, which it writes
// for the other control bytes and for <, > and &. A byte it writes
// verbatim has 0, and a non-ASCII byte nonASCII.
var textEscape = func() (t [256]byte) {
	for c := 0; c < 0x20; c++ {
		t[c] = 'u'
	}
	for c := 0x80; c < 0x100; c++ {
		t[c] = nonASCII
	}
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	return t
}()

// DecodeRequest parses one newline-delimited request frame. It rejects
// frames that carry trailing data after the JSON object (a desynchronised
// or malicious stream) and never panics on malformed input
// (FuzzDecodeRequest pins that, and that the canonical parse agrees with
// decodeRequestJSON).
//
//dhllint:hotpath
func DecodeRequest(frame []byte) (Request, error) {
	if req, ok := parseRequest(frame); ok {
		return req, nil
	}
	//dhllint:allow allocflow -- fallback for non-canonical frames; canonical ones never reach it
	return decodeRequestJSON(frame)
}

// decodeRequestJSON is the encoding/json request decoder.
func decodeRequestJSON(frame []byte) (Request, error) {
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

// DecodeResponse parses one reply line, with json.Unmarshal's rules: one
// object, then only whitespace. Its errors are encoding/json's.
func DecodeResponse(line []byte) (Response, error) {
	if resp, ok := parseResponse(line); ok {
		return resp, nil
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// appendJSON appends json.Encoder's frame for v, or returns its error
// with dst unchanged.
func appendJSON(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

// finite reports whether encoding/json can encode f.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ascii reports whether s has no byte from 0x80 up: encoding/json
// validates UTF-8 and escapes U+2028 and U+2029, which appendText does not.
func ascii(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// plain reports whether json.Encoder writes s verbatim inside its quotes:
// printable ASCII without a quote, a backslash, or the <, > and & it
// escapes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == 0x7f || textEscape[c] != 0 {
			return false
		}
	}
	return true
}

// appendFloat formats f as encoding/json does: 'f' notation, except 'e'
// below 1e-6 and from 1e21 up, with a two-digit negative exponent cut to
// one digit (e-07 becomes e-7).
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// ops lists the Op constants a canonical request may carry, so a parsed
// op is a constant rather than a fresh string.
var ops = [...]Op{OpOpen, OpClose, OpRead, OpWrite, OpStatus, OpMetrics}

// parseRequest parses a canonical request frame; ok is false for any
// other input.
//
//dhllint:hotpath
func parseRequest(frame []byte) (req Request, ok bool) {
	sc := scanner{p: frame}
	if !sc.lit(`{"op":`) {
		return Request{}, false
	}
	name := sc.str()
	for _, op := range ops {
		if equal(name, string(op)) {
			req.Op = op
		}
	}
	if req.Op == "" {
		return Request{}, false
	}
	if sc.lit(`,"cart":`) {
		req.Cart = sc.int()
	}
	if sc.lit(`,"bytes":`) {
		req.Bytes = sc.float()
	}
	return req, sc.end()
}

// parseResponse parses a canonical reply line; ok is false for any other
// input.
func parseResponse(line []byte) (resp Response, ok bool) {
	sc := scanner{p: line}
	if !sc.lit(`{"ok":`) {
		return Response{}, false
	}
	resp.OK = sc.bool()
	if sc.lit(`,"error":`) {
		resp.Error = string(sc.str())
	}
	if sc.lit(`,"code":`) {
		resp.Code = string(sc.str())
	}
	if sc.lit(`,"retry_after_s":`) {
		resp.RetryAfterS = sc.float()
	}
	if sc.lit(`,"stale":`) {
		resp.Stale = sc.bool()
	}
	if sc.lit(`,"cache_age_s":`) {
		resp.CacheAgeS = sc.float()
	}
	if sc.lit(`,"sim_time":`) {
		resp.SimTime = sc.float()
	}
	if sc.lit(`,"op_seconds":`) {
		resp.OpSeconds = sc.float()
	}
	if sc.lit(`,"stats":`) {
		resp.Stats = sc.stats()
	}
	if sc.lit(`,"metrics":`) {
		resp.Metrics = sc.snapshot()
	}
	if sc.lit(`,"text":`) {
		resp.Text = sc.text()
	}
	return resp, sc.end()
}

// stats consumes a StatsJSON object: every field in struct order, the
// fault-recovery ones optional.
func (sc *scanner) stats() *StatsJSON {
	s := new(StatsJSON)
	sc.need(`{"launches":`)
	s.Launches = sc.int()
	sc.need(`,"dock_ops":`)
	s.DockOps = sc.int()
	sc.need(`,"energy_j":`)
	s.EnergyJ = sc.float()
	sc.need(`,"bytes_read":`)
	s.BytesRead = sc.float()
	sc.need(`,"bytes_written":`)
	s.BytesWritten = sc.float()
	sc.need(`,"failures_seen":`)
	s.FailuresSeen = sc.int()
	sc.need(`,"denied":`)
	s.Denied = sc.int()
	sc.need(`,"queued":`)
	s.Queued = sc.int()
	if sc.lit(`,"degraded_launches":`) {
		s.DegradedLaunches = sc.int()
	}
	if sc.lit(`,"degraded_reads":`) {
		s.DegradedReads = sc.int()
	}
	if sc.lit(`,"degraded_bytes":`) {
		s.DegradedBytes = sc.float()
	}
	if sc.lit(`,"stalls":`) {
		s.Stalls = sc.int()
	}
	if sc.lit(`,"stall_time_s":`) {
		s.StallTimeS = sc.float()
	}
	if sc.lit(`,"reroutes":`) {
		s.Reroutes = sc.int()
	}
	if sc.lit(`,"timeouts":`) {
		s.Timeouts = sc.int()
	}
	if sc.lit(`,"backoffs":`) {
		s.Backoffs = sc.int()
	}
	if sc.lit(`,"backoff_wait_s":`) {
		s.BackoffWaitS = sc.float()
	}
	sc.need(`,"faults_injected":`)
	s.FaultsInjected = sc.int()
	sc.need(`,"downtime_s":`)
	s.DowntimeS = sc.float()
	sc.need(`,"availability":`)
	s.Availability = sc.float()
	sc.need("}")
	return s
}

// snapshot consumes a telemetry.Snapshot object whose sections are
// non-empty; a histogram's buckets may be null (nil) or [] (empty).
func (sc *scanner) snapshot() *telemetry.Snapshot {
	m := new(telemetry.Snapshot)
	sc.need("{")
	sep := ""
	if sc.lit(`"counters":[`) {
		for ok := true; ok; ok = sc.lit(",") {
			name, value := sc.point()
			m.Counters = append(m.Counters, telemetry.CounterPoint{Name: name, Value: value})
		}
		sc.need("]")
		sep = ","
	}
	if sc.key(sep, `"gauges":[`) {
		for ok := true; ok; ok = sc.lit(",") {
			name, value := sc.point()
			m.Gauges = append(m.Gauges, telemetry.GaugePoint{Name: name, Value: value})
		}
		sc.need("]")
		sep = ","
	}
	if sc.key(sep, `"histograms":[`) {
		for ok := true; ok; ok = sc.lit(",") {
			var h telemetry.HistogramPoint
			sc.need(`{"name":`)
			h.Name = string(sc.str())
			sc.need(`,"buckets":`)
			switch {
			case sc.lit("null"):
			case sc.lit("[]"):
				h.Buckets = []telemetry.BucketPoint{}
			default:
				sc.need("[")
				for ok := true; ok; ok = sc.lit(",") {
					var b telemetry.BucketPoint
					sc.need(`{"le":`)
					b.UpperBound = sc.float()
					sc.need(`,"count":`)
					b.Count = sc.uint()
					sc.need("}")
					h.Buckets = append(h.Buckets, b)
				}
				sc.need("]")
			}
			sc.need(`,"sum":`)
			h.Sum = sc.float()
			sc.need(`,"count":`)
			h.Count = sc.uint()
			sc.need("}")
			m.Histograms = append(m.Histograms, h)
		}
		sc.need("]")
	}
	sc.need("}")
	return m
}

// point consumes one {"name":…,"value":…} element of a counters or
// gauges array.
func (sc *scanner) point() (string, float64) {
	sc.need(`{"name":`)
	name := string(sc.str())
	sc.need(`,"value":`)
	value := sc.float()
	sc.need("}")
	return name, value
}

// text consumes a JSON string of ASCII bytes with the escapes appendText
// writes, and no others, and returns its contents.
func (sc *scanner) text() string {
	if !sc.lit(`"`) {
		sc.bad = true
		return ""
	}
	var b strings.Builder
	b.Grow(len(sc.p))
	p := sc.p
	start := 0
	for i := 0; i < len(p); i++ {
		c := p[i]
		if textEscape[c] == 0 {
			continue
		}
		switch c {
		case '"':
			b.Write(p[start:i])
			sc.p = p[i+1:]
			return b.String()
		case '<', '>', '&':
			continue // escaped by the encoder, but valid JSON as they are
		case '\\':
			if c, n := unescape(p[i:]); n > 0 {
				b.Write(p[start:i])
				b.WriteByte(c)
				i += n - 1
				start = i + 1
				continue
			}
		}
		break
	}
	sc.bad = true
	return ""
}

// unescape decodes the escape at the start of p if appendText writes it:
// the byte, and the escape's length, 0 for any other escape.
func unescape(p []byte) (byte, int) {
	if len(p) < 2 {
		return 0, 0
	}
	if e := p[1]; e != 'u' {
		for _, c := range [...]byte{'"', '\\', '\b', '\f', '\n', '\r', '\t'} {
			if textEscape[c] == e {
				return c, 2
			}
		}
		return 0, 0
	}
	if len(p) < 6 || p[2] != '0' || p[3] != '0' {
		return 0, 0
	}
	hi, lo := strings.IndexByte(hexDigits, p[4]), strings.IndexByte(hexDigits, p[5])
	if hi < 0 || lo < 0 || textEscape[hi<<4|lo] != 'u' {
		return 0, 0
	}
	return byte(hi<<4 | lo), 6
}

// scanner reads a canonical frame front to back. The first mismatch
// clears ok, after which every read yields a zero value and consumes
// nothing.
type scanner struct {
	p   []byte
	bad bool
}

// lit consumes s if the input starts with it.
func (sc *scanner) lit(s string) bool {
	if sc.bad || len(sc.p) < len(s) || !equal(sc.p[:len(s)], s) {
		return false
	}
	sc.p = sc.p[len(s):]
	return true
}

// need consumes s, and clears ok if the input does not start with it.
func (sc *scanner) need(s string) {
	if !sc.lit(s) {
		sc.bad = true
	}
}

// key consumes sep then k if the input starts with both.
func (sc *scanner) key(sep, k string) bool {
	if sc.bad || len(sc.p) < len(sep)+len(k) || !equal(sc.p[:len(sep)], sep) ||
		!equal(sc.p[len(sep):len(sep)+len(k)], k) {
		return false
	}
	sc.p = sc.p[len(sep)+len(k):]
	return true
}

// str consumes a JSON string of printable ASCII without escapes and
// returns its contents.
func (sc *scanner) str() []byte {
	if !sc.lit(`"`) {
		sc.bad = true
		return nil
	}
	for i, c := range sc.p {
		if c == '"' {
			s := sc.p[:i]
			sc.p = sc.p[i+1:]
			return s
		}
		if c < 0x20 || c >= 0x7f || c == '\\' {
			break
		}
	}
	sc.bad = true
	return nil
}

// bool consumes true or false.
func (sc *scanner) bool() bool {
	switch {
	case sc.lit("true"):
		return true
	case sc.lit("false"):
		return false
	}
	sc.bad = true
	return false
}

// number consumes a JSON number and returns its text; integer restricts
// it to an optional minus and digits.
func (sc *scanner) number(integer bool) []byte {
	p := sc.p
	i := 0
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		i = digits(p, i)
	default:
		sc.bad = true
		return nil
	}
	if !integer && i < len(p) && p[i] == '.' {
		if j := digits(p, i+1); j > i+1 {
			i = j
		} else {
			sc.bad = true
			return nil
		}
	}
	if !integer && i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		j := i + 1
		if j < len(p) && (p[j] == '+' || p[j] == '-') {
			j++
		}
		if k := digits(p, j); k > j {
			i = k
		} else {
			sc.bad = true
			return nil
		}
	}
	sc.p = p[i:]
	return p[:i]
}

// int consumes a JSON integer that fits an int.
func (sc *scanner) int() int {
	num := sc.number(true)
	if sc.bad {
		return 0
	}
	//dhllint:allow allocflow -- a number's text is at most 20 bytes here and ParseInt does not keep it, so the conversion uses a stack buffer (TestHotPathAllocsWireCodec pins this)
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		sc.bad = true
		return 0
	}
	return int(n)
}

// uint consumes a JSON integer that fits a uint64.
func (sc *scanner) uint() uint64 {
	num := sc.number(true)
	if sc.bad {
		return 0
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		sc.bad = true
		return 0
	}
	return n
}

// float consumes a JSON number that fits a float64, rounded as
// encoding/json rounds it.
func (sc *scanner) float() float64 {
	num := sc.number(false)
	if sc.bad {
		return 0
	}
	//dhllint:allow allocflow -- ParseFloat does not keep its argument, so a conversion of up to 32 bytes uses a stack buffer; canonical floats are at most 24 (TestHotPathAllocsWireCodec pins this)
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		sc.bad = true
		return 0
	}
	return f
}

// end consumes the closing brace and reports whether the whole frame was
// canonical: nothing but JSON whitespace may follow.
func (sc *scanner) end() bool {
	if !sc.lit("}") {
		return false
	}
	for _, c := range sc.p {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// digits returns the index of the first non-digit at or after i.
func digits(p []byte, i int) int {
	for i < len(p) && '0' <= p[i] && p[i] <= '9' {
		i++
	}
	return i
}

// equal reports whether b holds exactly the bytes of s. (string(b) == s
// does not allocate either, but allocflow flags the conversion.)
func equal(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}
