package controlplane

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRequest pins the frame decoder: any byte string either decodes
// to a Request that the rest of the pipeline (Validate, re-encode) can
// digest, or fails with a structured error, and a frame the canonical
// parser accepts decodes to exactly what encoding/json makes of it. The
// seed corpus covers the malformed shapes misbehaving peers actually
// send: truncation, trailing garbage, wrong JSON kinds, giant numbers,
// and exotic whitespace.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		// Well-formed frames for every op.
		`{"op":"open","cart":0}`,
		`{"op":"close","cart":3}`,
		`{"op":"read","cart":1,"bytes":4096}`,
		`{"op":"write","cart":2,"bytes":1e9}`,
		`{"op":"status"}`,
		`{"op":"metrics"}`,
		"{\"op\":\"status\"}\n",
		"{\"op\":\"write\",\"cart\":7,\"bytes\":2.5e-7}\r\n",
		// Near-canonical frames the canonical parser must hand on.
		`{"op":"read","bytes":1,"cart":2}`,
		`{"op":"read","cart":2,"cart":3}`,
		`{"OP":"open"}`,
		`{"op":"open","extra":1}`,
		`{"op" : "open"}`,
		`{"op":"open"}`,
		`{"op":"open","cart":1.0}`,
		`{"op":"open","cart":01}`,
		`{"op":"read","bytes":.5}`,
		`{"op":"read","bytes":1.}`,
		`{"op":"read","bytes":1e}`,
		`{"op":"read","bytes":-0}`,
		"{\"op\":\"open\"}\v",
		"{\"op\":\"open\"} ",
		// Truncated and malformed JSON.
		``,
		`{`,
		`{"op":`,
		`{"op":"sta`,
		`{this is not json}`,
		`}`,
		`null`,
		`true`,
		`42`,
		`"status"`,
		`[{"op":"status"}]`,
		// Trailing data after a complete object (desynchronised stream).
		`{"op":"status"}{"op":"status"}`,
		`{"op":"status"} trailing`,
		`{"op":"status"}]`,
		// Type confusion and numeric edge cases.
		`{"op":1}`,
		`{"op":null}`,
		`{"op":["open"]}`,
		`{"op":"read","bytes":"many"}`,
		`{"op":"read","bytes":-1}`,
		`{"op":"read","bytes":1e309}`,
		`{"op":"read","bytes":1e-400}`,
		`{"op":"write","cart":1e20,"bytes":1}`,
		`{"op":"open","cart":-9223372036854775809}`,
		`{"op":"open","cart":9223372036854775807}`,
		// Exotic whitespace and unicode.
		"\x00\x01\x02",
		"\xff\xfe{\"op\":\"status\"}",
		`{"op":"status"}`,
		"  \t\r\n  {\"op\":\"status\"}  \r\n",
		`{"op":"` + strings.Repeat("a", 1024) + `"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if fast, ok := parseRequest(frame); ok {
			want, err := decodeRequestJSON(frame)
			if err != nil {
				t.Fatalf("canonical parse accepted %q, encoding/json rejects it: %v", frame, err)
			}
			if !sameRequest(fast, want) {
				t.Fatalf("frame %q: canonical parse %+v, encoding/json %+v", frame, fast, want)
			}
		}
		req, err := DecodeRequest(frame)
		if err != nil {
			return // rejected structurally; nothing further to check
		}
		// A decoded request must survive the rest of the pipeline:
		// validation branches on it and the server echoes fields back.
		_ = req.Validate()
		if _, err := json.Marshal(req); err != nil {
			t.Fatalf("decoded request does not re-encode: %v (frame %q)", err, frame)
		}
	})
}

// FuzzDecodeResponse pins the client's reply decoder the same way: a line
// the canonical parser accepts decodes to exactly what json.Unmarshal
// makes of it, and any other line is json.Unmarshal's to judge.
func FuzzDecodeResponse(f *testing.F) {
	seeds := []string{
		"{\"ok\":true,\"sim_time\":8.6,\"op_seconds\":8.6}\n",
		`{"ok":true,"sim_time":0}`,
		`{"ok":false,"error":"dhlsys: cart 3 busy","code":"cart-busy","sim_time":12.5}`,
		`{"ok":false,"error":"controlplane: overloaded: queue-full","code":"server-busy","retry_after_s":0.25,"sim_time":0}`,
		`{"ok":true,"stale":true,"cache_age_s":1.5e-7,"sim_time":1e21}`,
		`{"ok":true,"stale":false,"sim_time":-0}`,
		`{"ok":true,"sim_time":1,"stats":{"launches":1}}`,
		`{"ok":true,"sim_time":1,"text":"# HELP"}`,
		// Near-canonical lines the canonical parser must hand on.
		`{"ok":true,"op_seconds":1,"sim_time":2}`,
		`{"ok":true,"ok":false,"sim_time":1}`,
		`{"OK":true,"sim_time":1}`,
		`{"ok":true,"error":"a\"b","sim_time":1}`,
		`{"ok":true,"error":"café","sim_time":1}`,
		"{\"ok\":true,\"error\":\"caf\xc3\xa9\",\"sim_time\":1}",
		"{\"ok\":true,\"error\":\"\xff\",\"sim_time\":1}",
		`{"ok":1,"sim_time":1}`,
		`{"ok":true,"sim_time":"1"}`,
		`{"ok":true,"sim_time":1e400}`,
		`{"ok":true,"sim_time":01}`,
		`{"ok":true,"sim_time":1} x`,
		`{"ok":true,"sim_time":1}{}`,
		`{"ok":true,"sim_time":1` + "\n",
		``,
		`null`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := DecodeResponse(line)
		var want Response
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("line %q: DecodeResponse error %v, json.Unmarshal error %v", line, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if fast, ok := parseResponse(line); ok && !sameResponse(fast, want) {
			t.Fatalf("line %q: canonical parse %+v, json.Unmarshal %+v", line, fast, want)
		}
		if !sameResponse(got, want) {
			t.Fatalf("line %q: DecodeResponse %+v, json.Unmarshal %+v", line, got, want)
		}
	})
}

// sameRequest compares requests field by field, floats by their bits.
func sameRequest(a, b Request) bool {
	return a.Op == b.Op && a.Cart == b.Cart && math.Float64bits(a.Bytes) == math.Float64bits(b.Bytes)
}

// sameResponse compares responses field by field, floats by their bits.
func sameResponse(a, b Response) bool {
	bits := math.Float64bits
	return a.OK == b.OK && a.Error == b.Error && a.Code == b.Code &&
		bits(a.RetryAfterS) == bits(b.RetryAfterS) && a.Stale == b.Stale &&
		bits(a.CacheAgeS) == bits(b.CacheAgeS) && bits(a.SimTime) == bits(b.SimTime) &&
		bits(a.OpSeconds) == bits(b.OpSeconds) && a.Text == b.Text &&
		reflect.DeepEqual(a.Stats, b.Stats) && reflect.DeepEqual(a.Metrics, b.Metrics)
}
