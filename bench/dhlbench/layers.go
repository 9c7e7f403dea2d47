package main

import (
	"time"

	"repro/bench/internal/hist"
)

// The traced pass. Each layer's metrics come from the traced workload
// when it exercises that layer; otherwise from a short traced run of the
// workload that does (campus-chaos for tubenet and faults, shuttle-bulk
// for dhlsys, serve-loopback for the control plane). The isolated probes
// run every time. sim.* and trace.* always describe the traced workload.

// Reference runs are kept short: a few reps, or this many seconds of
// serve-loopback requests.
const (
	refBudget       = 500 * time.Millisecond
	refServeSeconds = 1.0
)

// tracedSim is what the traced pass learns from a sim workload: rep wall
// times untraced, traced and (shuttle-bulk) with telemetry off, and the
// traced reps' layer timers.
type tracedSim struct {
	untraced, traced, off []float64
	timers                []*selfTimer
	out                   repOut // the last traced rep
}

// traceSim alternates untraced and traced reps of r (and of off, when
// given) for at least minEach rounds and until budget has passed. The
// first traced rep's layer spans go to rec.
func traceSim(r, off simRunner, budget time.Duration, minEach int, rec *spanRec, track string, tl *tally) tracedSim {
	var ts tracedSim
	for i, t := 0, time.Now(); i < minEach || time.Since(t) < budget; i++ {
		t0 := time.Now()
		out, err := r.rep(nil)
		rec.add(track, "untraced rep", t0, time.Now())
		if tl.rep(out, err) {
			ts.untraced = append(ts.untraced, time.Since(t0).Seconds())
		}
		if off != nil {
			t0 = time.Now()
			out, err = off.rep(nil)
			rec.add(track, "telemetry-off rep", t0, time.Now())
			if tl.rep(out, err) {
				ts.off = append(ts.off, time.Since(t0).Seconds())
			}
		}
		var layerRec *spanRec
		if len(ts.timers) == 0 {
			layerRec = rec.child(20000)
		}
		tr := newSelfTimer(layerRec, track+" layers")
		out, err = r.rep(tr)
		rec.add(track, "traced rep", tr.began, time.Now())
		rec.merge(layerRec)
		if tl.rep(out, err) {
			ts.timers = append(ts.timers, tr)
			ts.traced = append(ts.traced, tr.wall.Seconds())
			ts.out = out
		}
	}
	return ts
}

// median of f over the traced reps.
func (ts *tracedSim) median(f func(*selfTimer) float64) float64 {
	xs := make([]float64, len(ts.timers))
	for i, t := range ts.timers {
		xs[i] = f(t)
	}
	return quantileOf(xs, 0.5)
}

func (ts *tracedSim) ok() bool { return len(ts.timers) > 0 }

func (ts *tracedSim) hasFaults() bool { return ts.ok() && ts.timers[0].count[catFault] > 0 }

// overhead is how much slower, in percent, a than b at the median.
func overhead(a, b []float64) float64 {
	return 100 * (quantileOf(a, 0.5)/quantileOf(b, 0.5) - 1)
}

// simLayers sets the sim.* and trace.* metrics of the traced workload.
func (ts *tracedSim) simLayers(m map[string]float64) {
	if !ts.ok() {
		return
	}
	m["sim.events_per_rep"] = float64(ts.out.events)
	m["sim.queue_depth_p50"] = ts.timers[0].depth.Quantile(0.5)
	m["trace.overhead_pct"] = overhead(ts.traced, ts.untraced)
	m["trace.accounted_pct"] = ts.median(func(t *selfTimer) float64 {
		return t.share(catDispatch, catRouter, catFault, catTransit, catDock, catIO)
	})
}

// tubenetLayers sets the campus dispatch and router metrics. Fault
// events count as router time: each one recomputes the route tables.
func (ts *tracedSim) tubenetLayers(m map[string]float64) {
	if !ts.ok() {
		return
	}
	epochs := ts.out.counts["tubenet.route_epochs"]
	m["tubenet.dispatch_ns_per_event"] = ts.median(func(t *selfTimer) float64 { return t.nsPer(catDispatch) })
	m["tubenet.router_us_per_recompute"] = ts.median(func(t *selfTimer) float64 {
		return (t.self[catRouter] + t.self[catFault]).Seconds() * 1e6 / epochs
	})
	m["tubenet.router_share"] = ts.median(func(t *selfTimer) float64 { return t.share(catRouter, catFault) })
	for _, k := range []string{"tubenet.route_epochs", "tubenet.reroutes", "tubenet.loiters", "tubenet.stalls"} {
		m[k] = ts.out.counts[k]
	}
}

func (ts *tracedSim) faultLayers(m map[string]float64) {
	if !ts.ok() {
		return
	}
	m["faults.events_per_rep"] = float64(ts.timers[0].count[catFault])
	m["faults.us_per_event"] = ts.median(func(t *selfTimer) float64 { return t.nsPer(catFault) }) / 1e3
}

func (ts *tracedSim) dhlsysLayers(m map[string]float64) {
	if !ts.ok() {
		return
	}
	m["dhlsys.transit_ns_per_event"] = ts.median(func(t *selfTimer) float64 { return t.nsPer(catTransit) })
	m["dhlsys.dock_ns_per_event"] = ts.median(func(t *selfTimer) float64 { return t.nsPer(catDock) })
	m["dhlsys.io_ns_per_event"] = ts.median(func(t *selfTimer) float64 { return t.nsPer(catIO) })
	m["telemetry.spans_per_rep"] = ts.out.counts["telemetry.spans_per_rep"]
	m["telemetry.overhead_pct"] = overhead(ts.untraced, ts.off)
}

// traceServe runs a serve workload's traced pass on one server: four
// windows alternating untraced and traced, so the tracing overhead is
// measured against the same server. It sets the controlplane.*, admit.*
// and retained-heap metrics (and, for the traced workload itself, sim.*
// and trace.overhead_pct) and returns the untraced p50 in µs.
func traceServe(w workload, seed int64, seconds float64, rec *spanRec, tl *tally, m map[string]float64, own bool) float64 {
	digest, _, err := planDigest(seed)
	tl.rep(repOut{digest: digest}, err)
	s, err := setupServe(seed, true)
	if err != nil {
		tl.fail(err)
		return 0
	}
	s.resetLatency()
	const windows = 4
	n := perConn(seconds, w.sz.serveBudget, windows)
	var untraced, traced hist.Hist
	var requests, events int
	heap0 := liveHeapMB()
	for i := 0; i < windows; i++ {
		on := i%2 == 1
		s.setTracing(on, rec.t0)
		t0 := time.Now()
		out := s.window(n)
		name := "untraced window"
		if on {
			name = "traced window"
			traced.Merge(s.latency())
		} else {
			untraced.Merge(s.latency())
		}
		rec.add("serve", name, t0, time.Now())
		s.resetLatency()
		requests += out.attempted
		events += out.events
	}
	heap1 := liveHeapMB()

	byOp := make([]hist.Hist, len(serveOps))
	var depth hist.Hist
	queueMax := 0
	for _, c := range s.conns {
		for i := range byOp {
			byOp[i].Merge(&c.byOp[i])
		}
		depth.Merge(&c.depth)
		if c.admQueue > queueMax {
			queueMax = c.admQueue
		}
		rec.addAll(c.spans)
	}
	for i, op := range serveOps {
		m["controlplane."+string(op)+"_p50_us"] = byOp[i].Quantile(0.5) / 1e3
	}
	adm := s.srv.Admission()
	var admitted, shed uint64
	for _, c := range adm.Classes {
		admitted += c.Admitted
		shed += c.Shed()
	}
	m["admit.admitted"] = float64(admitted)
	m["admit.shed"] = float64(shed)
	m["admit.queue_depth_max"] = float64(queueMax)
	m["admit.est_service_us"] = adm.EstServiceS * 1e6
	m["telemetry.retained_bytes_per_request"] = (heap1 - heap0) * 1e6 / float64(requests)
	if own {
		m["sim.events_per_rep"] = float64(events) / float64(requests)
		m["sim.queue_depth_p50"] = depth.Quantile(0.5)
		m["trace.overhead_pct"] = 100 * (traced.Quantile(0.5)/untraced.Quantile(0.5) - 1)
	}
	s.report(tl)
	if err := s.close(); err != nil {
		tl.fail(err)
	}
	return untraced.Quantile(0.5) / 1e3
}

// traceWorkload is the traced pass of w. ws supplies the reference
// workloads for the layers w does not exercise.
func traceWorkload(w workload, ws []workload, seed int64, seconds float64, rec *spanRec, tl *tally) (map[string]float64, error) {
	m := map[string]float64{}
	budget := time.Duration(seconds * float64(time.Second))
	var own tracedSim
	var serveP50 float64
	if w.serve {
		serveP50 = traceServe(w, seed, seconds, rec, tl, m, true)
	} else {
		var off simRunner
		if w.simOff != nil {
			off = w.simOff(seed)
		}
		own = traceSim(w.sim(seed), off, budget, 3, rec, w.name, tl)
		own.simLayers(m)
	}

	// ref runs reference workload name's traced reps with its own digest.
	ref := func(name string) tracedSim {
		rw, _ := workloadNamed(ws, name)
		var off simRunner
		if rw.simOff != nil {
			off = rw.simOff(seed)
		}
		rt := &tally{want: rw.golden(seed)}
		ts := traceSim(rw.sim(seed), off, refBudget, 2, rec, "ref "+name, rt)
		tl.absorb(rt)
		return ts
	}
	if w.campus {
		own.tubenetLayers(m)
	}
	if own.hasFaults() {
		own.faultLayers(m)
	}
	if !w.campus || !own.hasFaults() {
		chaos := ref("campus-chaos")
		if !w.campus {
			chaos.tubenetLayers(m)
		}
		if !own.hasFaults() {
			chaos.faultLayers(m)
		}
	}
	if w.shuttle {
		own.dhlsysLayers(m)
	} else {
		shuttle := ref("shuttle-bulk")
		shuttle.dhlsysLayers(m)
	}
	if !w.serve {
		sw, _ := workloadNamed(ws, "serve-loopback")
		rt := &tally{want: sw.golden(seed)}
		serveP50 = traceServe(sw, seed, refServeSeconds, rec, rt, m, false)
		tl.absorb(rt)
	}
	return m, probe(w, seed, serveP50, rec, m)
}

// probe runs the isolated layer probes and derives the control plane's
// layer sum and residual from them and the serve p50.
func probe(w workload, seed int64, serveP50 float64, rec *spanRec, m map[string]float64) error {
	step := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		rec.add("probes", name, t0, time.Now())
		return err
	}
	var err error
	steps := []struct {
		name string
		fn   func() error
	}{
		{"kernel", func() error {
			m["sim.kernel_ns_per_event"] = kernelNsPerEvent(int(m["sim.queue_depth_p50"]), w.sz.kernelEvents)
			return nil
		}},
		{"router", func() error {
			m["tubenet.router_recompute_us_isolated"], err = routerRecomputeUs()
			return err
		}},
		{"dhlsys.New", func() error {
			m["dhlsys.new_us"], err = dhlsysNewUs(seed, w.sz.dataset)
			return err
		}},
		{"execute", func() error {
			m["dhlsys.execute_ns"], err = executeNs(seed)
			return err
		}},
		{"telemetry", func() error {
			var prom float64
			m["telemetry.snapshot_ns"], prom, err = telemetryNs(seed)
			m["telemetry.prometheus_us"] = prom / 1e3
			return err
		}},
		{"codec", func() error {
			m["controlplane.decode_ns"], m["controlplane.encode_ns"], err = codecNs(seed)
			return err
		}},
		{"tcp", func() error {
			m["controlplane.tcp_rtt_us"], err = tcpRTTUs(2000)
			return err
		}},
	}
	for _, s := range steps {
		if err := step(s.name, s.fn); err != nil {
			return err
		}
	}
	sum := (m["controlplane.decode_ns"]+m["dhlsys.execute_ns"]+m["telemetry.snapshot_ns"]+m["controlplane.encode_ns"])/1e3 +
		m["controlplane.tcp_rtt_us"]
	m["controlplane.layer_sum_us"] = sum
	m["controlplane.residual_us"] = serveP50 - sum
	if w.serve {
		m["trace.accounted_pct"] = 100 * sum / serveP50
	}
	return nil
}
