package astra

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/units"
)

// This file implements the paper's two Table VII experiments and the
// Figure 6 sweep.

// SchemeResult is one row of Table VII.
type SchemeResult struct {
	Scheme string
	// Power is the scheme's average communication power.
	Power units.Watts
	// TimePerIter is the iteration time.
	TimePerIter units.Seconds
	// Factor is the paper's last column: slowdown w.r.t. DHL (iso-power) or
	// power increase w.r.t. DHL (iso-time). 1.0 for the DHL row.
	Factor units.Ratio
}

// IsoPower reproduces Table VII(a): every scheme gets the DHL's average
// power budget; networks parallelise links continuously; iteration times and
// slowdowns are reported. Rows are DHL, A0, A1, A2, B, C.
func IsoPower(w DLRM, dhl DHL) ([]SchemeResult, error) {
	budget := dhl.AveragePower()
	dhlIter, err := w.Iteration(dhl)
	if err != nil {
		return nil, err
	}
	rows := []SchemeResult{{
		Scheme:      "DHL",
		Power:       dhl.AveragePower(),
		TimePerIter: dhlIter.Total(),
		Factor:      1,
	}}
	for _, s := range netmodel.Scenarios() {
		opt, err := OpticalForBudget(s, budget)
		if err != nil {
			return nil, err
		}
		it, err := w.Iteration(opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SchemeResult{
			Scheme:      s.String(),
			Power:       opt.AveragePower(),
			TimePerIter: it.Total(),
			Factor:      units.Ratio(float64(it.Total()) / float64(dhlIter.Total())),
		})
	}
	return rows, nil
}

// IsoTime reproduces Table VII(b): every network is given exactly enough
// parallel links to match the DHL's iteration time; the resulting powers and
// power increases are reported.
func IsoTime(w DLRM, dhl DHL) ([]SchemeResult, error) {
	dhlIter, err := w.Iteration(dhl)
	if err != nil {
		return nil, err
	}
	target := dhlIter.Total()
	ingestBudget := target - w.NonIngestTime()
	if ingestBudget <= 0 {
		return nil, fmt.Errorf("astra: target time %v below the non-ingest floor %v",
			target, w.NonIngestTime())
	}
	links := float64(w.IngestBytes()) / float64(ingestBudget) / float64(netmodel.LinkBandwidth())
	rows := []SchemeResult{{
		Scheme:      "DHL",
		Power:       dhl.AveragePower(),
		TimePerIter: target,
		Factor:      1,
	}}
	for _, s := range netmodel.Scenarios() {
		opt, err := NewOptical(s, links)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SchemeResult{
			Scheme:      s.String(),
			Power:       opt.AveragePower(),
			TimePerIter: target,
			Factor:      units.Ratio(float64(opt.AveragePower()) / float64(dhl.AveragePower())),
		})
	}
	return rows, nil
}

// CurvePoint is one (power, time) sample of a Figure 6 series.
type CurvePoint struct {
	Power units.Watts
	Time  units.Seconds
}

// Curve is one Figure 6 series.
type Curve struct {
	Name string
	// Quantised marks DHL curves, whose points are discrete track counts.
	Quantised bool
	Points    []CurvePoint
}

// Figure6Options controls the sweep.
type Figure6Options struct {
	// DHLConfigs are the DHL-X-Y-Z variants to plot.
	DHLConfigs []core.Config
	// MaxPower bounds the sweep's x-axis.
	MaxPower units.Watts
	// NetPoints is the number of samples per continuous network curve.
	NetPoints int
	// Regen for the DHL transports.
	Regen float64
}

// DefaultFigure6Options plots the paper's DHL variants (speed sweep and
// capacity sweep around the default) against all five network scenarios up
// to 250 kW.
func DefaultFigure6Options() Figure6Options {
	base := core.DefaultConfig()
	return Figure6Options{
		DHLConfigs: []core.Config{
			base.With(100, 500, 32),
			base.With(200, 500, 32),
			base.With(300, 500, 32),
			base.With(200, 500, 16),
			base.With(200, 500, 64),
		},
		MaxPower:  250 * units.Kilowatt,
		NetPoints: 40,
		Regen:     DefaultRegen,
	}
}

// Figure6 generates the full figure: time per iteration (log-scale in the
// paper) as a function of the communication power budget, one quantised
// curve per DHL variant and then one continuous curve per network scenario.
func Figure6(w DLRM, opt Figure6Options) ([]Curve, error) {
	if opt.MaxPower <= 0 {
		return nil, fmt.Errorf("astra: max power must be positive, got %v", opt.MaxPower)
	}
	if opt.NetPoints < 2 {
		return nil, fmt.Errorf("astra: need ≥2 network points, got %d", opt.NetPoints)
	}
	var curves []Curve
	for _, cfg := range opt.DHLConfigs {
		c, err := dhlCurve(w, cfg, opt)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	for _, s := range netmodel.Scenarios() {
		c, err := networkCurve(w, s, opt)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// dhlCurve sweeps track counts for one DHL variant. The launch metrics are
// computed once and shared across every track count (NewDHL would
// recompute them per point).
func dhlCurve(w DLRM, cfg core.Config, opt Figure6Options) (Curve, error) {
	one, err := NewDHL(cfg, 1, opt.Regen)
	if err != nil {
		return Curve{}, err
	}
	maxTracks := int(float64(opt.MaxPower) / float64(one.AveragePower()))
	c := Curve{Name: cfg.String(), Quantised: true}
	for k := 1; k <= maxTracks; k++ {
		d := one
		d.Tracks = k
		it, err := w.Iteration(d)
		if err != nil {
			return Curve{}, err
		}
		c.Points = append(c.Points, CurvePoint{Power: d.AveragePower(), Time: it.Total()})
	}
	if len(c.Points) == 0 {
		return Curve{}, fmt.Errorf("astra: budget %v affords no %v track", opt.MaxPower, cfg)
	}
	return c, nil
}

// networkCurve samples one continuous optical-scenario curve.
func networkCurve(w DLRM, s netmodel.Scenario, opt Figure6Options) (Curve, error) {
	c := Curve{Name: s.String()}
	minP := float64(s.Power().Total()) // at least one link
	// Log-spaced budgets from one link to MaxPower.
	for i := 0; i < opt.NetPoints; i++ {
		frac := float64(i) / float64(opt.NetPoints-1)
		p := minP * math.Pow(float64(opt.MaxPower)/minP, frac)
		optTr, err := OpticalForBudget(s, units.Watts(p))
		if err != nil {
			return Curve{}, err
		}
		it, err := w.Iteration(optTr)
		if err != nil {
			return Curve{}, err
		}
		c.Points = append(c.Points, CurvePoint{Power: units.Watts(p), Time: it.Total()})
	}
	return c, nil
}
