package controlplane

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dhlsys"
)

// jsonPipe wraps a raw connection in the wire codec.
func jsonPipe(c net.Conn) (*json.Encoder, *json.Decoder) {
	return json.NewEncoder(c), json.NewDecoder(bufio.NewReader(c))
}

// tempErr is a transient net.Error (ECONNABORTED, EMFILE, ...).
type tempErr struct{}

func (tempErr) Error() string   { return "fake: transient accept failure" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// fakeListener scripts Accept behaviour: a run of errors, then real
// connections handed in through Inject.
type fakeListener struct {
	mu     sync.Mutex
	errs   []error
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newFakeListener(errs ...error) *fakeListener {
	return &fakeListener{
		errs:   errs,
		conns:  make(chan net.Conn, 8),
		closed: make(chan struct{}),
	}
}

func (l *fakeListener) nextErr() (error, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.errs) == 0 {
		return nil, false
	}
	err := l.errs[0]
	l.errs = l.errs[1:]
	return err, true
}

func (l *fakeListener) Accept() (net.Conn, error) {
	if err, ok := l.nextErr(); ok {
		return nil, err
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *fakeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *fakeListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestAcceptLoopSurvivesTransientErrors is the regression for the
// listener dying on the first transient Accept error: after a burst of
// temporary failures the loop must still accept and serve connections.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultServerOptions()
	opt.DrainTimeout = 100 * time.Millisecond
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv.readTimeout = 2 * time.Second
	ln := newFakeListener(tempErr{}, tempErr{}, tempErr{})
	srv.Serve(ln)
	defer srv.Close()

	client, server := net.Pipe()
	defer client.Close()
	ln.conns <- server

	// The loop burned through three transient errors with backoff; the
	// piped connection must still get a real response.
	done := make(chan error, 1)
	go func() {
		enc, dec := jsonPipe(client)
		if err := enc.Encode(Request{Op: OpStatus}); err != nil {
			done <- err
			return
		}
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			done <- err
			return
		}
		if !resp.OK {
			done <- errors.New("status over pipe failed: " + resp.Error)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("connection after transient accept errors: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop never served the connection (did a transient error kill it?)")
	}
}

// TestAcceptLoopExitsOnPermanentError pins the other side of the
// contract: a non-temporary listener failure ends the loop (no hot spin)
// and Close still drains cleanly.
func TestAcceptLoopExitsOnPermanentError(t *testing.T) {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultServerOptions()
	opt.DrainTimeout = 100 * time.Millisecond
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	ln := newFakeListener(errors.New("fake: permanent listener failure"))
	srv.Serve(ln)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close wedged after permanent accept error")
	}
}
