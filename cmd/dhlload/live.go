package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/cpclient"
)

// liveResult aggregates a wall-clock run against a real TCP server.
// Unlike the virtual harness this is inherently nondeterministic; the
// report says so. Cut counts the requests still in flight when the run's
// own deadline ended them; they are not failures.
type liveResult struct {
	OK, Failed, Busy, Cut uint64
	Client                cpclient.Stats
	Elapsed               time.Duration
}

// runLive drives `clients` concurrent cpclient loops against a live
// control-plane server for the given wall duration. Each client runs the
// same open → ops×IO → close cycle as the virtual closed loop.
func runLive(addr string, clients int, duration time.Duration, ops int, bytes float64, seed int64) liveResult {
	budget := cpclient.NewBudget(0, 0) // defaults, shared per server
	var (
		mu  sync.Mutex
		agg liveResult
		wg  sync.WaitGroup
	)
	deadline := time.Now().Add(duration)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		c := cpclient.New(cpclient.Options{
			Addr:   addr,
			Budget: budget,
			Retry:  cpclient.RetryOptions{Seed: seed*1_000_003 + int64(i)},
		})
		cart := i
		//dhllint:allow goroutine -- live-mode wall-clock load driver; aggregation is mutex-guarded and joined below
		go func() {
			defer wg.Done()
			defer c.Close()
			var ok, failed, busy, cut uint64
			for time.Now().Before(deadline) {
				reqs := make([]controlplane.Request, 0, ops+2)
				reqs = append(reqs, controlplane.Request{Op: controlplane.OpOpen, Cart: cart})
				for j := 0; j < ops; j++ {
					// Write first: a read of a cart that holds nothing
					// fails.
					op := controlplane.OpRead
					if j%2 == 0 {
						op = controlplane.OpWrite
					}
					reqs = append(reqs, controlplane.Request{Op: op, Cart: cart, Bytes: bytes})
				}
				reqs = append(reqs, controlplane.Request{Op: controlplane.OpClose, Cart: cart})
				for _, req := range reqs {
					resp, err := c.DoDeadline(req, deadline)
					switch {
					case err == nil && resp.OK:
						ok++
					case err == nil && resp.Code == controlplane.CodeServerBusy:
						busy++
					case err != nil && !time.Now().Before(deadline):
						cut++
					default:
						failed++
					}
					if time.Now().After(deadline) {
						break
					}
				}
			}
			st := c.Stats()
			mu.Lock()
			agg.OK += ok
			agg.Failed += failed
			agg.Busy += busy
			agg.Cut += cut
			agg.Client.Requests += st.Requests
			agg.Client.Attempts += st.Attempts
			agg.Client.Retries += st.Retries
			agg.Client.Redials += st.Redials
			agg.Client.TransportErrors += st.TransportErrors
			agg.Client.BusyResponses += st.BusyResponses
			agg.Client.BudgetDenied += st.BudgetDenied
			agg.Client.DeadlineDenied += st.DeadlineDenied
			mu.Unlock()
		}()
	}
	wg.Wait()
	agg.Elapsed = time.Since(start)
	return agg
}

// Report renders the live run (wall-clock, nondeterministic by nature).
func (r liveResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dhlload live report (wall-clock, not deterministic)\n")
	fmt.Fprintf(&b, "elapsed:   %.2fs\n", r.Elapsed.Seconds())
	fmt.Fprintf(&b, "responses: ok=%d busy=%d failed=%d cut=%d (%.6g ok/s)\n",
		r.OK, r.Busy, r.Failed, r.Cut, float64(r.OK)/r.Elapsed.Seconds())
	fmt.Fprintf(&b, "client:    attempts=%d retries=%d redials=%d transport_errors=%d budget_denied=%d deadline_denied=%d\n",
		r.Client.Attempts, r.Client.Retries, r.Client.Redials,
		r.Client.TransportErrors, r.Client.BudgetDenied, r.Client.DeadlineDenied)
	return b.String()
}
