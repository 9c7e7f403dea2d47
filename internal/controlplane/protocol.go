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
// in its format, and a trailing newline. The frames that make up nearly
// all traffic form the canonical subset, which this file writes and parses
// by hand, without reflection or allocation:
//
//   - a request whose op needs no escaping and whose size is finite;
//   - an op reply: no stats, metrics or text, strings that need no
//     escaping, finite floats.
//
// A parsed frame is canonical when its keys are exact, in struct order,
// each at most once, its strings are printable ASCII without escapes, its
// numbers fit their fields, and only JSON whitespace follows the object
// (and, for a request, its op is one of the six Op constants). Everything
// else — status and metrics replies, other key orders, whitespace inside
// the object, escapes, non-finite floats — goes through encoding/json,
// as every frame did before the hand-written paths existed. That
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
	if req.Cart != 0 {
		dst = append(dst, `,"cart":`...)
		dst = strconv.AppendInt(dst, int64(req.Cart), 10)
	}
	if req.Bytes != 0 {
		dst = append(dst, `,"bytes":`...)
		dst = appendFloat(dst, req.Bytes)
	}
	dst = append(dst, "}\n"...)
	return dst, nil
}

// AppendResponse appends resp's frame, newline included, to dst. A reply
// encoding/json rejects (a NaN or infinite float) returns its error and
// dst unchanged.
//
//dhllint:hotpath
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	if resp.Stats != nil || resp.Metrics != nil || resp.Text != "" ||
		!plain(resp.Error) || !plain(resp.Code) ||
		!finite(resp.RetryAfterS) || !finite(resp.CacheAgeS) ||
		!finite(resp.SimTime) || !finite(resp.OpSeconds) {
		//dhllint:allow allocflow -- fallback for status, metrics and other non-canonical replies; the op-reply path below does not allocate
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
	if resp.RetryAfterS != 0 {
		dst = append(dst, `,"retry_after_s":`...)
		dst = appendFloat(dst, resp.RetryAfterS)
	}
	if resp.Stale {
		dst = append(dst, `,"stale":true`...)
	}
	if resp.CacheAgeS != 0 {
		dst = append(dst, `,"cache_age_s":`...)
		dst = appendFloat(dst, resp.CacheAgeS)
	}
	dst = append(dst, `,"sim_time":`...)
	dst = appendFloat(dst, resp.SimTime)
	if resp.OpSeconds != 0 {
		dst = append(dst, `,"op_seconds":`...)
		dst = appendFloat(dst, resp.OpSeconds)
	}
	dst = append(dst, "}\n"...)
	return dst, nil
}

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

// plain reports whether json.Encoder writes s verbatim inside its quotes:
// printable ASCII without a quote, a backslash, or the <, > and & it
// escapes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
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
	return resp, sc.end()
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
