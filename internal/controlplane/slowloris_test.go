package controlplane

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/dhlsys"
)

// startHardened boots a TCP server with the default options, after
// tweak has adjusted the server.
func startHardened(t *testing.T, tweak func(*Server)) (*Server, string) {
	t.Helper()
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithOptions(sys, DefaultServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// TestOversizedRequestLineRejected: a peer streaming an endless line is
// answered with a structured CodeBadRequest and dropped — it cannot
// balloon server memory — and the server keeps serving other clients.
func TestOversizedRequestLineRejected(t *testing.T) {
	_, addr := startHardened(t, func(s *Server) { s.maxRequestBytes = 256 })

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte(strings.Repeat("x", 4096) + "\n")); err != nil {
		t.Fatal(err)
	}
	_, dec := jsonPipe(raw)
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("want a structured rejection, got transport error: %v", err)
	}
	if resp.OK || resp.Code != CodeBadRequest || !strings.Contains(resp.Error, "exceeds") {
		t.Errorf("oversized line response = %+v", resp)
	}
	// The connection must be severed after the rejection.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := dec.Decode(&resp); err == nil {
		t.Error("connection should be closed after an oversized frame")
	}

	// A well-behaved client on a fresh connection is unaffected.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err := c.Do(Request{Op: OpStatus}); err != nil || !st.OK {
		t.Errorf("fresh connection after oversize rejection: %v %+v", err, st)
	}
}

// TestMalformedFrameAnsweredStructurally: garbage JSON gets a
// CodeBadRequest response before the drop, not a silent hangup.
func TestMalformedFrameAnsweredStructurally(t *testing.T) {
	_, addr := startHardened(t, nil)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("{this is not json}\n")); err != nil {
		t.Fatal(err)
	}
	_, dec := jsonPipe(raw)
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("want structured rejection: %v", err)
	}
	if resp.OK || resp.Code != CodeBadRequest {
		t.Errorf("malformed frame response = %+v", resp)
	}
}

// TestPartialFrameIdleTimeout: a slowloris peer that sends half a
// request and stalls is cut off by the read deadline — the deadline
// covers the whole frame, not just the first byte.
func TestPartialFrameIdleTimeout(t *testing.T) {
	_, addr := startHardened(t, func(s *Server) { s.readTimeout = 100 * time.Millisecond })
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Half a request, no newline, then silence.
	if _, err := raw.Write([]byte(`{"op":"sta`)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 64)
	if _, err := raw.Read(buf); err == nil {
		t.Error("stalled half-frame should have been dropped by the read deadline")
	}
}

// TestDrainSeversStragglersAndCounts: Close's drain deadline forcibly
// severs connections that never finish, and Severed reports how many.
func TestDrainSeversStragglersAndCounts(t *testing.T) {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultServerOptions()
	opt.DrainTimeout = 150 * time.Millisecond
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Two clients park without completing an exchange.
	for i := 0; i < 2; i++ {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write([]byte(`{"op":`)); err != nil {
			t.Fatal(err)
		}
	}
	// Give the accept loop a moment to register both.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.connMu.Lock()
		n := len(srv.conns)
		srv.connMu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("connections never registered: %d", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not drain")
	}
	if got := srv.Severed(); got != 2 {
		t.Errorf("Severed() = %d, want 2", got)
	}
}

// TestMaxConnsRefusedStructurally: connections over the cap get a
// CodeServerBusy response with a retry hint, then a clean close.
func TestMaxConnsRefusedStructurally(t *testing.T) {
	_, addr := startHardened(t, func(s *Server) { s.opt.MaxConns = 1 })

	keeper, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()
	if _, err := keeper.Do(Request{Op: OpStatus}); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_, dec := jsonPipe(raw)
	raw.SetReadDeadline(time.Now().Add(3 * time.Second))
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("over-cap connection should get a busy response: %v", err)
	}
	if resp.OK || resp.Code != CodeServerBusy || resp.RetryAfterS <= 0 {
		t.Errorf("over-cap response = %+v", resp)
	}
	// The kept connection still works.
	if st, err := keeper.Do(Request{Op: OpStatus}); err != nil || !st.OK {
		t.Errorf("kept connection: %v %+v", err, st)
	}
}
