package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"time"

	"repro/bench/internal/hist"
	"repro/internal/controlplane"
	"repro/internal/dhlsys"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tubenet"
	"repro/internal/units"
)

// The probes time one layer in isolation, through its public functions,
// on inputs shaped like the workloads'. The traced pass runs every probe,
// whichever workload it traces.

// perCall runs fn in batches of per calls and returns the median
// nanoseconds of one call across batches.
func perCall(batches, per int, fn func() error) (float64, error) {
	xs := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	return quantileOf(xs, 0.5), nil
}

// kernelNsPerEvent times the event kernel alone with depth
// self-rescheduling timers, so the queue holds depth events throughout
// as it does in the traced workload.
func kernelNsPerEvent(depth, events int) float64 {
	if depth < 1 {
		depth = 1
	}
	xs := make([]float64, 0, 5)
	for r := 0; r < 5; r++ {
		eng := sim.New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n <= events-depth {
				eng.MustAfter(units.Seconds(depth), "tick", tick)
			}
		}
		for j := 0; j < depth; j++ {
			eng.MustAfter(units.Seconds(1+j), "tick", tick)
		}
		t0 := time.Now()
		for eng.Step() {
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(eng.Processed()))
	}
	return quantileOf(xs, 0.5)
}

// routerRecomputeUs times Router.Recompute alone on the default campus
// topology, everything up and no queues.
func routerRecomputeUs() (float64, error) {
	topo, err := tubenet.NewCampus(tubenet.DefaultCampusConfig())
	if err != nil {
		return 0, err
	}
	base, err := topo.TransitTimes(tubenet.DefaultCartMass, 0)
	if err != nil {
		return 0, err
	}
	r, err := tubenet.NewRouter(topo, base, 0.25, 1)
	if err != nil {
		return 0, err
	}
	live := tubenet.Liveness{NodeUp: make([]bool, topo.NumNodes()), EdgeUp: make([]bool, topo.NumEdges())}
	for i := range live.NodeUp {
		live.NodeUp[i] = true
	}
	for i := range live.EdgeUp {
		live.EdgeUp[i] = true
	}
	queues := make([]int, topo.NumEdges())
	ctx := context.Background()
	ns, err := perCall(21, 50, func() error { return r.Recompute(ctx, live, queues) })
	return ns / 1e3, err
}

// dhlsysNewUs times dhlsys.New for the shuttle-bulk deployment, recording
// into a reset warm set as the workload does.
func dhlsysNewUs(seed int64, dataset units.Bytes) (float64, error) {
	r := &shuttleRunner{seed: seed, dataset: dataset, set: telemetry.NewSet()}
	opt, err := r.options()
	if err != nil {
		return 0, err
	}
	ns, err := perCall(21, 20, func() error {
		r.set.Reset()
		_, err := dhlsys.New(opt)
		return err
	})
	return ns / 1e3, err
}

// simOps is the seed's plan for cart 0 without the status and metrics
// requests, which do not touch the simulation.
func simOps(seed int64) []controlplane.Request {
	var ops []controlplane.Request
	for _, req := range makePlan(seed, 0) {
		if req.Op != controlplane.OpStatus && req.Op != controlplane.OpMetrics {
			ops = append(ops, req)
		}
	}
	return ops
}

// executeNs times what the server does inside the simulation semaphore
// for one simulation op: the op plus the engine run, on a shadow system.
func executeNs(seed int64) (float64, error) {
	sh, err := newShadow(false)
	if err != nil {
		return 0, err
	}
	ops := simOps(seed)
	i := 0
	return perCall(21, len(ops), func() error {
		_, _, err := shadowOp(sh, ops[i%len(ops)])
		i++
		return err
	})
}

// telemetryNs times the two telemetry reads the server makes: Report plus
// MetricsSnapshot after every request (snapshot), and the Prometheus
// rendering of a metrics request, on a system with the workload's
// instrumentation after one plan of ops.
func telemetryNs(seed int64) (snapshot, prometheus float64, err error) {
	sh, err := newShadow(true)
	if err != nil {
		return 0, 0, err
	}
	for _, req := range simOps(seed) {
		if _, _, err := shadowOp(sh, req); err != nil {
			return 0, 0, err
		}
	}
	snapshot, err = perCall(21, 200, func() error {
		_ = sh.Report()
		_ = sh.MetricsSnapshot()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	prometheus, err = perCall(21, 10, func() error {
		_ = telemetry.PrometheusText(sh.MetricsSnapshot())
		return nil
	})
	return snapshot, prometheus, err
}

// codecNs times the wire codec: DecodeRequest on the plan's request
// frames, and the server's per-connection encoder on simulation-op
// replies.
func codecNs(seed int64) (decode, encode float64, err error) {
	sh, err := newShadow(false)
	if err != nil {
		return 0, 0, err
	}
	ops := simOps(seed)
	frames := make([][]byte, len(ops))
	replies := make([]controlplane.Response, len(ops))
	for i, req := range ops {
		frame, err := json.Marshal(req)
		if err != nil {
			return 0, 0, err
		}
		frames[i] = append(frame, '\n')
		d, _, err := shadowOp(sh, req)
		if err != nil {
			return 0, 0, err
		}
		replies[i] = controlplane.Response{OK: true, SimTime: float64(sh.Engine.Now()), OpSeconds: d}
	}
	i := 0
	decode, err = perCall(21, len(frames), func() error {
		_, err := controlplane.DecodeRequest(frames[i%len(frames)])
		i++
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	enc := json.NewEncoder(io.Discard)
	encode, err = perCall(21, len(replies), func() error {
		err := enc.Encode(replies[i%len(replies)])
		i++
		return err
	})
	return decode, encode, err
}

// tcpRTTUs is the loopback floor: the median round trip of a request-sized
// line through a raw TCP echo, with no server logic behind it.
func tcpRTTUs(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	//dhllint:allow goroutine -- the echo peer for the round-trip probe; it exits when the client hangs up and is waited for below
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		done <- err
	}()
	cl, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	frame := []byte(`{"op":"read","cart":0,"bytes":128000000}` + "\n")
	br := bufio.NewReader(cl)
	var h hist.Hist
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		if _, err = cl.Write(frame); err == nil {
			_, err = br.ReadSlice('\n')
		}
		h.Record(uint64(time.Since(t0)))
	}
	cl.Close()
	if echoErr := <-done; err == nil {
		err = echoErr
	}
	return h.Quantile(0.5) / 1e3, err
}
