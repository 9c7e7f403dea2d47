package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/dhlsys"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/tubenet"
	"repro/internal/units"
)

// repOut is what one complete simulation leaves for the harness.
type repOut struct {
	events int
	// digest hashes the simulated statistics; every rep of one seed must
	// produce the same one.
	digest string
	// model holds simulated-time outputs, reported only beside the digest.
	model map[string]float64
	// counts are exact per-layer counts (route epochs, spans, ...).
	counts map[string]float64
	// state is the simulation, kept reachable while the heap is measured.
	state any
}

// simRunner runs complete simulations of one sim workload at one seed. tr,
// when non-nil, is attached to the simulation's event engine.
type simRunner interface {
	rep(tr *selfTimer) (repOut, error)
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// campusHorizon is the chaos fault horizon, as cmd/dhlsim -campus uses.
const campusHorizon units.Seconds = 300

// campusRunner is the campus-chaos and campus-calm workloads: a fleet
// dispatched over the default 20-station campus. With chaos, the
// campus-partition scenario cuts junctions and segments and routes are
// recomputed every 30 s; without, epochs are off and the router computes
// its tables once.
type campusRunner struct {
	seed         int64
	chaos        bool
	carts, trips int
}

func (r campusRunner) rep(tr *selfTimer) (repOut, error) {
	opt := tubenet.Options{Carts: r.carts, TripsPerCart: r.trips, Seed: r.seed}
	if !r.chaos {
		opt.EpochEvery = -1
	}
	c, err := tubenet.New(opt)
	if err != nil {
		return repOut{}, err
	}
	if r.chaos {
		script, err := faults.ScenarioDims(faults.ScenarioCampusPartition, r.seed, campusHorizon, c.Dims())
		if err != nil {
			return repOut{}, err
		}
		inj, err := faults.NewInjector(c.Engine(), c, script)
		if err != nil {
			return repOut{}, err
		}
		if err := inj.Arm(); err != nil {
			return repOut{}, err
		}
	}
	if tr != nil {
		tr.attach(c.Engine())
		tr.switchTo(catRouter) // Run starts with a full route computation
	}
	res, err := c.Run()
	if tr != nil {
		tr.end()
	}
	if err != nil {
		return repOut{}, err
	}
	if got, want := res.TripsCompleted+res.TripsPending, r.carts*r.trips; got != want {
		return repOut{}, fmt.Errorf("campus: %d trips completed + pending, want %d", got, want)
	}
	return repOut{
		events: res.Events,
		digest: digestOf(res.String()),
		model: map[string]float64{
			"sim_elapsed_s":   float64(res.Elapsed),
			"transit_p50_s":   float64(res.TransitP50),
			"transit_p99_s":   float64(res.TransitP99),
			"trips_completed": float64(res.TripsCompleted),
			"trips_pending":   float64(res.TripsPending),
		},
		counts: map[string]float64{
			"tubenet.route_epochs": float64(res.RouteEpochs),
			"tubenet.reroutes":     float64(res.Reroutes),
			"tubenet.loiters":      float64(res.Loiters),
			"tubenet.stalls":       float64(res.Stalls),
		},
		state: c,
	}, nil
}

// shuttleRunner is the shuttle-bulk workload: a bulk transfer with
// endpoint reads on a 4-cart dual-rail deployment under rough-day chaos.
// It records into one long-lived telemetry set that every rep resets, the
// pooled mode sweeps and servers use; a nil set runs uninstrumented.
type shuttleRunner struct {
	seed    int64
	dataset units.Bytes
	set     *telemetry.Set
}

// options is the deployment one rep builds, fault script included.
func (r *shuttleRunner) options() (dhlsys.Options, error) {
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = 4
	opt.RailMode = track.DualRail
	opt.Seed = r.seed
	an, err := core.Transfer(opt.Core, r.dataset)
	if err != nil {
		return opt, err
	}
	dims := faults.Dims{Carts: opt.NumCarts, Stations: opt.DockStations, DevicesPerCart: opt.Core.Cart.Config.NumSSDs}
	script, err := faults.ScenarioDims(faults.ScenarioRoughDay, r.seed, an.Time*1.1, dims)
	if err != nil {
		return opt, err
	}
	opt.Faults = &script
	opt.Telemetry = r.set
	return opt, nil
}

func (r *shuttleRunner) rep(tr *selfTimer) (repOut, error) {
	r.set.Reset()
	opt, err := r.options()
	if err != nil {
		return repOut{}, err
	}
	sys, err := dhlsys.New(opt)
	if err != nil {
		return repOut{}, err
	}
	if tr != nil {
		tr.attach(sys.Engine)
	}
	res, err := sys.Shuttle(dhlsys.ShuttleOptions{Dataset: r.dataset, ReadAtEndpoint: true})
	if tr != nil {
		tr.end()
	}
	if err != nil {
		return repOut{}, err
	}
	if res.BytesDelivered < r.dataset {
		return repOut{}, fmt.Errorf("shuttle: delivered %v of %v", res.BytesDelivered, r.dataset)
	}
	st := sys.Stats()
	out := repOut{
		events: sys.Engine.Processed(),
		digest: digestOf(fmt.Sprintf("%+v\n%+v", res, st)),
		model: map[string]float64{
			"sim_duration_s":      float64(res.Duration),
			"deliveries":          float64(res.Deliveries),
			"retries":             float64(res.Retries),
			"degraded_deliveries": float64(res.DegradedDeliveries),
			"launches":            float64(st.Launches),
		},
		counts: map[string]float64{},
		state:  sys,
	}
	if r.set != nil {
		out.counts["telemetry.spans_per_rep"] = float64(r.set.Spans.Len())
	}
	return out, nil
}
