// Package twin runs the benchmark's workloads on the twin: a frozen copy,
// under internal/, of the repository packages the workloads use, taken at
// the commit that defined the benchmark with only their import paths
// changed.
//
// The benchmark runs on shared virtual machines whose speed changes by up
// to 2.4× for minutes at a time, and different code slows by different
// amounts. So each unit of work on the repository's code is paired with
// the same unit on the twin, run right before or after it on the same
// host, and the benchmark reports the ratio of the two. The twin's code
// never changes, so the ratio moves only with the repository's code.
//
// The twin runs in a child process of the benchmark, so that its
// allocations, garbage collection and heap stay apart from those the
// benchmark measures. Serve reads one Job, then one Request per unit of
// work, each answered by one Reply, as JSON values, until its input ends.
package twin

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/bench/_twin/internal/telemetry"
	"repro/bench/_twin/internal/units"
)

// Job is the workload the twin runs and its generated inputs.
type Job struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Carts    int     `json:"carts"`
	Trips    int     `json:"trips"`
	Dataset  float64 `json:"dataset_bytes"`
}

// The requests. A sim workload's set-up builds a fresh runner and runs one
// cold rep on it; a rep runs one rep on the last runner built. A serve
// workload's first set-up builds the server that the batches run on; each
// later one builds a spare server, cold-cycles it and tears it down
// untimed. A batch sends N requests on each connection.
const (
	OpSetup = "setup"
	OpRep   = "rep"
	OpBatch = "batch"
)

// Request is one unit of work for the twin.
type Request struct {
	Op string `json:"op"`
	N  int    `json:"n,omitempty"`
}

// Reply is what one unit of work took. WallNs is its wall time: a whole
// set-up, a rep, or a batch's requests without their untimed checks.
// Events are the simulation events it ran. A sim reply carries the rep's
// digest; a serve reply the requests attempted and answered correctly and
// their median latency. Errs lists the failures.
type Reply struct {
	WallNs    int64    `json:"wall_ns"`
	Events    int      `json:"events"`
	Digest    string   `json:"digest,omitempty"`
	Attempted int      `json:"attempted,omitempty"`
	OK        int      `json:"ok,omitempty"`
	P50Ns     float64  `json:"p50_ns,omitempty"`
	Errs      []string `json:"errs,omitempty"`
}

// Serve reads a Job from in, answers each Request that follows on out, and
// returns when in ends, after shutting down what it built.
func Serve(in io.Reader, out io.Writer) (err error) {
	dec := json.NewDecoder(bufio.NewReader(in))
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	var job Job
	if err := dec.Decode(&job); err != nil {
		return fmt.Errorf("twin: reading the job: %w", err)
	}
	var do func(Request) Reply
	switch job.Workload {
	case "campus-chaos", "campus-calm":
		chaos := job.Workload == "campus-chaos"
		do = simDo(func() func() (rep, error) {
			return func() (rep, error) { return campusRep(job.Seed, chaos, job.Carts, job.Trips) }
		})
	case "shuttle-bulk":
		do = simDo(func() func() (rep, error) {
			return (&shuttle{seed: job.Seed, dataset: units.Bytes(job.Dataset), set: telemetry.NewSet()}).rep
		})
	case "serve-loopback":
		var s *server
		defer func() {
			if s != nil {
				err = errors.Join(err, s.close())
			}
		}()
		do = func(req Request) Reply { return serveDo(&s, job.Seed, req) }
	default:
		return fmt.Errorf("twin: unknown workload %q", job.Workload)
	}
	for {
		var req Request
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("twin: reading a request: %w", err)
		}
		if err := enc.Encode(do(req)); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// simDo answers a sim workload's requests; build makes a fresh runner.
func simDo(build func() func() (rep, error)) func(Request) Reply {
	var run func() (rep, error)
	return func(req Request) Reply {
		t0 := time.Now()
		switch {
		case req.Op == OpSetup:
			run = build()
		case req.Op != OpRep || run == nil:
			return Reply{Errs: []string{fmt.Sprintf("twin: unexpected request %q", req.Op)}}
		}
		out, err := run()
		r := Reply{WallNs: time.Since(t0).Nanoseconds(), Events: out.events, Digest: out.digest}
		if err != nil {
			r.Errs = []string{err.Error()}
		}
		return r
	}
}

// serveDo answers a serve workload's requests on the server at *s.
func serveDo(s **server, seed int64, req Request) Reply {
	switch {
	case req.Op == OpSetup:
		t0 := time.Now()
		spare, err := setupServe(seed)
		wall := time.Since(t0)
		if err != nil {
			return Reply{Attempted: 1, Errs: []string{err.Error()}}
		}
		r := spare.drain()
		if *s == nil {
			*s = spare
		} else if err := spare.close(); err != nil {
			r.Attempted++
			r.Errs = append(r.Errs, err.Error())
		}
		r.WallNs = wall.Nanoseconds()
		return r
	case req.Op == OpBatch && *s != nil:
		wall := (*s).window(req.N)
		r := (*s).drain()
		r.WallNs = wall.Nanoseconds()
		return r
	}
	return Reply{Attempted: 1, Errs: []string{fmt.Sprintf("twin: unexpected request %q", req.Op)}}
}
