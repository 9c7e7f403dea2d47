package admit

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// arrive runs ArriveInto on a fresh ticket, returned only when admitted.
func arrive(c *Controller, class Class, conn int64, now time.Time) (*Ticket, Outcome) {
	t := new(Ticket)
	out := c.ArriveInto(t, class, conn, now)
	if !out.Admitted {
		return nil, out
	}
	return t, out
}

// at is a virtual clock helper: seconds past an arbitrary epoch.
func at(s float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(s * float64(time.Second)))
}

func TestDefaults(t *testing.T) {
	c := New(Options{})
	o := c.Options()
	if o.MaxInFlight != 1 || o.MaxQueue != 64 {
		t.Errorf("defaults: %+v", o)
	}
	if o.BrownoutFrac != 0.5 || o.RetryAfterMin != 50*time.Millisecond {
		t.Errorf("defaults: %+v", o)
	}
}

func TestImmediateAdmissionThenQueueThenShed(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 2})
	now := at(0)

	t1, o1 := arrive(c, ClassIO, 1, now)
	if !o1.Admitted || o1.Queued || t1 == nil {
		t.Fatalf("first arrival should run immediately: %+v", o1)
	}
	t2, o2 := arrive(c, ClassIO, 2, now)
	if !o2.Admitted || !o2.Queued {
		t.Fatalf("second arrival should queue: %+v", o2)
	}
	_, o3 := arrive(c, ClassIO, 3, now)
	if !o3.Admitted || !o3.Queued {
		t.Fatalf("third arrival should queue: %+v", o3)
	}
	tk4, o4 := arrive(c, ClassIO, 4, now)
	if o4.Admitted || tk4 != nil {
		t.Fatalf("fourth arrival should shed: %+v", o4)
	}
	if o4.Reason != ReasonQueueFull {
		t.Errorf("reason = %v, want queue-full", o4.Reason)
	}
	if o4.RetryAfter <= 0 {
		t.Errorf("shed outcome must carry a retry-after hint, got %v", o4.RetryAfter)
	}

	// Finish the runner; promote a waiter; room opens up.
	if err := c.Done(t1, at(0.2)); err != nil {
		t.Fatal(err)
	}
	c.Started(t2, at(0.2))
	_, o5 := arrive(c, ClassIO, 5, at(0.2))
	if !o5.Admitted {
		t.Fatalf("slot freed, arrival should queue again: %+v", o5)
	}
	s := c.Snapshot()
	if s.InFlight != 1 || s.QueueDepth != 2 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestRetryAfterGrowsWithBacklog(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 100, ServiceTimeHint: time.Second})
	now := at(0)
	arrive(c, ClassIO, -1, now) // running
	var prev time.Duration
	for i := 0; i < 20; i++ {
		arrive(c, ClassIO, -1, now) // queue up
	}
	// Shed probes at increasing depth must see non-decreasing hints.
	c2 := New(Options{MaxInFlight: 1, MaxQueue: 5, ServiceTimeHint: time.Second})
	arrive(c2, ClassIO, -1, now)
	for i := 0; i < 5; i++ {
		arrive(c2, ClassIO, -1, now)
		_, o := arrive(c2, ClassControl, -1, now)
		if o.Admitted {
			continue
		}
		if o.RetryAfter < prev {
			t.Errorf("retry-after shrank with deeper queue: %v -> %v", prev, o.RetryAfter)
		}
		prev = o.RetryAfter
	}
	_, o := arrive(c, ClassIO, -1, now)
	if !o.Admitted {
		t.Fatalf("queue of 100 should still admit: %+v", o)
	}
}

func TestTokenBucketDeterministic(t *testing.T) {
	run := func() []bool {
		c := New(Options{MaxInFlight: 10, MaxQueue: 10, Rate: 2, Burst: 2})
		var got []bool
		// 10 arrivals at 0.25s spacing against a 2/s bucket of burst 2.
		for i := 0; i < 10; i++ {
			tk, o := arrive(c, ClassIO, -1, at(float64(i)*0.25))
			got = append(got, o.Admitted)
			if tk != nil {
				c.Done(tk, at(float64(i)*0.25+0.01))
			}
		}
		return got
	}
	a, b := run(), run()
	admitted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("token bucket nondeterministic at %d: %v vs %v", i, a, b)
		}
		if a[i] {
			admitted++
		}
	}
	// Burst 2 up front plus 2/s over 2.25s of arrivals: 6–7 admits.
	if admitted < 5 || admitted > 8 {
		t.Errorf("admitted %d of 10, want ~6-7: %v", admitted, a)
	}
}

func TestControlClassBypassesRateLimit(t *testing.T) {
	c := New(Options{MaxInFlight: 100, MaxQueue: 10, Rate: 1, Burst: 1})
	now := at(0)
	arrive(c, ClassIO, -1, now) // drains the only token
	if _, o := arrive(c, ClassIO, -1, now); o.Admitted {
		t.Fatal("bucket empty, IO should shed")
	} else if o.Reason != ReasonRateLimited {
		t.Errorf("reason = %v", o.Reason)
	}
	if _, o := arrive(c, ClassControl, -1, now); !o.Admitted {
		t.Errorf("control reads must bypass the bucket: %+v", o)
	}
}

func TestBrownoutShedsLaunchFirst(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 10, BrownoutFrac: 0.5})
	now := at(0)
	arrive(c, ClassIO, -1, now) // running
	for i := 0; i < 5; i++ {    // queue to the brownout threshold
		if _, o := arrive(c, ClassIO, -1, now); !o.Admitted {
			t.Fatalf("fill %d: %+v", i, o)
		}
	}
	if _, o := arrive(c, ClassLaunch, -1, now); o.Admitted {
		t.Fatal("launch should shed in brownout")
	} else if o.Reason != ReasonBrownout {
		t.Errorf("reason = %v, want brownout", o.Reason)
	}
	if _, o := arrive(c, ClassIO, -1, now); !o.Admitted {
		t.Errorf("IO should still queue during brownout: %+v", o)
	}
	if _, o := arrive(c, ClassControl, -1, now); !o.Admitted {
		t.Errorf("control should still queue during brownout: %+v", o)
	}
	if !c.Snapshot().Brownout {
		t.Error("snapshot should report brownout")
	}
}

func TestPerConnCap(t *testing.T) {
	c := New(Options{MaxInFlight: 10, MaxQueue: 10, PerConn: 2})
	now := at(0)
	t1, _ := arrive(c, ClassIO, 7, now)
	arrive(c, ClassIO, 7, now)
	if _, o := arrive(c, ClassIO, 7, now); o.Admitted {
		t.Fatal("third outstanding request on conn 7 should shed")
	} else if o.Reason != ReasonPerConn {
		t.Errorf("reason = %v", o.Reason)
	}
	// Other connections are unaffected.
	if _, o := arrive(c, ClassIO, 8, now); !o.Admitted {
		t.Errorf("conn 8 should admit: %+v", o)
	}
	// Finishing one frees the slot.
	c.Done(t1, at(0.1))
	if _, o := arrive(c, ClassIO, 7, now); !o.Admitted {
		t.Errorf("slot freed, conn 7 should admit: %+v", o)
	}
}

func TestAbandonReleasesQueueSlot(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 1})
	now := at(0)
	arrive(c, ClassIO, -1, now)
	tq, o := arrive(c, ClassIO, -1, now)
	if !o.Queued {
		t.Fatalf("should queue: %+v", o)
	}
	if _, o := arrive(c, ClassIO, -1, now); o.Admitted {
		t.Fatal("queue full")
	}
	if err := c.Abandon(tq); err != nil {
		t.Fatal(err)
	}
	if _, o := arrive(c, ClassIO, -1, now); !o.Admitted {
		t.Errorf("abandon should free the queue slot: %+v", o)
	}
	if err := c.Abandon(tq); err != ErrTicketReused {
		t.Errorf("double release = %v, want ErrTicketReused", err)
	}
	if got := c.Snapshot().Classes[int(ClassIO)].Abandoned; got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
}

func TestServiceEstimateTracksCompletions(t *testing.T) {
	c := New(Options{ServiceTimeHint: 100 * time.Millisecond})
	est0 := c.Snapshot().EstServiceS
	for i := 0; i < 40; i++ {
		tk, _ := arrive(c, ClassIO, -1, at(float64(i)))
		c.Done(tk, at(float64(i)+2)) // 2s services
	}
	est := c.Snapshot().EstServiceS
	if est <= est0 || est < 1.5 {
		t.Errorf("estimate should converge toward 2s: %v -> %v", est0, est)
	}
}

func TestSnapshotJSONDeterministicOrder(t *testing.T) {
	c := New(Options{})
	a, _ := json.Marshal(c.Snapshot())
	b, _ := json.Marshal(c.Snapshot())
	if string(a) != string(b) {
		t.Fatalf("snapshot marshal differs:\n%s\n%s", a, b)
	}
	want := `"classes":[{"class":"control"`
	if got := string(a); !contains(got, want) {
		t.Errorf("classes not in fixed order: %s", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentUse hammers the controller from many goroutines so the
// race detector can vet the locking (the counts themselves are checked
// for conservation).
func TestConcurrentUse(t *testing.T) {
	c := New(Options{MaxInFlight: 4, MaxQueue: 8, PerConn: 3, Rate: 1e9, Burst: 1e9})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(conn int64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				now := at(float64(i))
				tk, o := arrive(c, ClassIO, conn, now)
				if !o.Admitted {
					continue
				}
				if o.Queued {
					if i%2 == 0 {
						c.Abandon(tk)
						continue
					}
					c.Started(tk, now)
				}
				c.Done(tk, now.Add(time.Millisecond))
			}
		}(int64(w))
	}
	wg.Wait()
	s := c.Snapshot()
	if s.InFlight != 0 || s.QueueDepth != 0 {
		t.Errorf("leaked slots: %+v", s)
	}
}

// TestArriveIntoReusesOneTicket: a handler's one ticket serves request
// after request, an admitted ticket goes back exactly once, and a shed
// arrival leaves the ticket reading as released.
func TestArriveIntoReusesOneTicket(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 1, PerConn: 1})
	var tk Ticket
	for i := 0; i < 3; i++ {
		if o := c.ArriveInto(&tk, ClassIO, 7, at(float64(i))); !o.Admitted || o.Queued {
			t.Fatalf("arrival %d: %+v", i, o)
		}
		if err := c.Done(&tk, at(float64(i)+0.5)); err != nil {
			t.Fatalf("done %d: %v", i, err)
		}
		if err := c.Done(&tk, at(float64(i)+0.5)); err != ErrTicketReused {
			t.Fatalf("second done %d: %v, want ErrTicketReused", i, err)
		}
	}

	var running Ticket
	if o := c.ArriveInto(&running, ClassIO, 7, at(5)); !o.Admitted {
		t.Fatalf("arrival: %+v", o)
	}
	if o := c.ArriveInto(&tk, ClassIO, 7, at(5)); o.Admitted || o.Reason != ReasonPerConn {
		t.Fatalf("second arrival on conn 7 = %+v, want a per-conn shed", o)
	}
	if err := c.Abandon(&tk); err != ErrTicketReused {
		t.Errorf("abandon of a shed ticket: %v, want ErrTicketReused", err)
	}
	if s := c.Snapshot(); s.InFlight != 1 || s.QueueDepth != 0 {
		t.Errorf("snapshot = %+v, want the one running request", s)
	}
}
