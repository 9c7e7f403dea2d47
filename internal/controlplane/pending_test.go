package controlplane

import (
	"testing"

	"repro/internal/dhlsys"
	"repro/internal/fleet"
)

// oneDockServer serves carts behind a single endpoint dock station, so a
// second Open has to queue until the docked cart closes.
func oneDockServer(t *testing.T, carts int, edit func(*dhlsys.Options)) *Client {
	t.Helper()
	opt := dhlsys.DefaultOptions()
	opt.DockStations = 1
	opt.NumCarts = carts
	if edit != nil {
		edit(&opt)
	}
	_, addr := startServer(t, opt)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustDo(t *testing.T, c *Client, req Request) Response {
	t.Helper()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	return resp
}

// TestParkedOpenRepliesPending: with the only dock station taken, an Open
// cannot launch before the simulation goes idle. The reply says so rather
// than reporting a zero-second success, and the cart launches inside the
// Close that frees the station.
func TestParkedOpenRepliesPending(t *testing.T) {
	c := oneDockServer(t, 3, nil)
	if resp := mustDo(t, c, Request{Op: OpOpen, Cart: 0}); !resp.OK {
		t.Fatalf("open cart 0: %+v", resp)
	}
	resp := mustDo(t, c, Request{Op: OpOpen, Cart: 1})
	if resp.OK || resp.Code != CodePending || resp.Error == "" {
		t.Fatalf("open cart 1 behind a full dock bank: %+v, want code %q", resp, CodePending)
	}
	if resp := mustDo(t, c, Request{Op: OpWrite, Cart: 1, Bytes: 1e9}); resp.Code != CodeCartBusy {
		t.Errorf("write to the queued cart: %+v, want code %q", resp, CodeCartBusy)
	}
	if resp := mustDo(t, c, Request{Op: OpClose, Cart: 0}); !resp.OK {
		t.Fatalf("close cart 0: %+v", resp)
	}
	if resp := mustDo(t, c, Request{Op: OpWrite, Cart: 1, Bytes: 1e9}); !resp.OK {
		t.Errorf("write after cart 1 docked: %+v", resp)
	}
}

// TestParkedOpCannotRewriteLaterReply: a queued Open that completes inside
// a later request's run must not decide that request's reply. Every
// launch here overruns a 1 s launch timeout, but cart 0's Close ends in a
// connector service, which reports no timeout. Cart 1's queued Open docks
// after that and reports one, which belongs to cart 1 alone.
func TestParkedOpCannotRewriteLaterReply(t *testing.T) {
	c := oneDockServer(t, 2, func(opt *dhlsys.Options) {
		wear, err := fleet.New(fleet.Connector{Name: "test", RatedCycles: 2}, fleet.Policy{ServiceFraction: 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		opt.Wear = wear
		opt.Recovery.LaunchTimeout = 1
	})
	if resp := mustDo(t, c, Request{Op: OpOpen, Cart: 0}); resp.Code != CodeLaunchTimeout {
		t.Fatalf("open cart 0: %+v, want code %q", resp, CodeLaunchTimeout)
	}
	if resp := mustDo(t, c, Request{Op: OpOpen, Cart: 1}); resp.Code != CodePending {
		t.Fatalf("open cart 1: %+v, want code %q", resp, CodePending)
	}
	if resp := mustDo(t, c, Request{Op: OpClose, Cart: 0}); !resp.OK {
		t.Errorf("close cart 0 took cart 1's outcome: %+v", resp)
	}
}
