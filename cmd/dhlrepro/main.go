// Command dhlrepro regenerates every table and figure of the paper, and the
// ablation and discussion-section (§VI) studies, in one run, writing text and
// CSV artefacts into an output directory — the repository's single entry
// point for paper artefacts.
//
// Usage:
//
//	dhlrepro [-out out]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/astra"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netmodel"
	"repro/internal/physics"
	"repro/internal/report"
	"repro/internal/sneakernet"
	"repro/internal/storage"
	"repro/internal/thermal"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dhlrepro: ")
	outDir := flag.String("out", "out", "output directory")
	flag.Parse()
	if err := run(*outDir, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// The levitation budget's magnet thickness and target air gap (§IV-A), in
// metres.
const (
	halbachThickness = 0.005
	levitationTarget = 0.010
)

// artefacts lists every output file with the one function that builds it,
// in the order run writes them.
var artefacts = []struct {
	name  string
	build func(*bytes.Buffer) error
}{
	{"fig2_route_energies.txt", fig2},
	{"table6_design_space.csv", table6},
	{"table7_training.txt", table7},
	{"fig6_curves.csv", fig6CSV},
	{"fig6_plot.txt", fig6Plot},
	{"table8_cost.txt", table8},
	{"sec5e_minimum_specs.txt", sec5e},
	{"ablations.txt", ablations},
}

// run builds every artefact into dir, reporting each file written to w.
func run(dir string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range artefacts {
		var b bytes.Buffer
		if err := a.build(&b); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		path := filepath.Join(dir, a.name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d bytes)\n", path, b.Len())
	}
	_, err := fmt.Fprintln(w, "all artefacts regenerated")
	return err
}

// section renders t into b followed by a blank line. Rendering into a
// bytes.Buffer cannot fail, so Render's error is always nil.
func section(b *bytes.Buffer, t *report.Table) {
	_ = t.Render(b)
	b.WriteString("\n")
}

// fig2 is Figure 2: the optical routes' power and energy for 29 PB, the
// fat-tree port counts each route is derived from, and the single-link
// transfer time every route shares.
func fig2(b *bytes.Buffer) error {
	dataset := core.PaperDataset
	t := report.NewTable("Figure 2 — network route energies for 29 PB",
		"route", "power_W", "energy_MJ", "eff_GB_per_J")
	d := report.NewTable("Derived fat-tree routes (must match the scenario port counts)",
		"route", "xcvrs", "NICs", "passive_ports", "active_ports", "description")
	routes := netmodel.ScenarioRoutes()
	for _, s := range netmodel.Scenarios() {
		p := s.Power()
		t.AddRow(s.String(), float64(p.Total()), p.Energy(dataset).MJ(), p.Efficiency(dataset))
		rp := routes[s]
		d.AddRow(s.String(), rp.Transceivers, rp.NICs, rp.PassivePorts, rp.ActivePorts, s.Describe())
	}
	section(b, t)
	section(b, d)
	tt := netmodel.TransferTime(dataset)
	fmt.Fprintf(b, "Transfer of %v over one %v link: %v (%.2f days)\n",
		dataset, netmodel.LineRate, tt, tt.Days())
	return nil
}

// table6 is Table VI: the 13-row design space moving 29 PB, with speedup
// and energy reductions against the five 400Gb/s scenarios.
func table6(b *bytes.Buffer) error {
	rows, err := core.DesignSpace()
	if err != nil {
		return err
	}
	headers := []string{"config", "energy_kJ", "eff_GB_per_J", "time_s", "bw_TB_per_s",
		"peak_kW", "trips", "speedup", "red_A0", "red_A1", "red_A2", "red_B", "red_C"}
	var data [][]string
	for _, r := range rows {
		row := []string{
			r.Launch.Config.String(),
			fmt.Sprintf("%.4g", r.Launch.Energy.KJ()),
			fmt.Sprintf("%.4g", r.Launch.Efficiency),
			fmt.Sprintf("%.4g", float64(r.Launch.Time)),
			fmt.Sprintf("%.4g", float64(r.Launch.Bandwidth)/1e12),
			fmt.Sprintf("%.4g", r.Launch.PeakPower.KW()),
			fmt.Sprintf("%d", r.Transfer.TotalTrips),
			fmt.Sprintf("%.4g", float64(r.Comparisons[0].TimeSpeedup)),
		}
		for _, c := range r.Comparisons {
			row = append(row, fmt.Sprintf("%.4g", float64(c.EnergyReduction)))
		}
		data = append(data, row)
	}
	return report.WriteCSV(b, headers, data)
}

// table7 is Table VII: the DLRM training study at iso-power and iso-time.
func table7(b *bytes.Buffer) error {
	w := astra.DefaultDLRM()
	dhl := astra.DefaultDHL()
	iso, err := astra.IsoPower(w, dhl)
	if err != nil {
		return err
	}
	isoT, err := astra.IsoTime(w, dhl)
	if err != nil {
		return err
	}
	emit := func(title string, rows []astra.SchemeResult, factor string) {
		t := report.NewTable(title, "scheme", "power_kW", "time_s", factor)
		for _, r := range rows {
			t.AddRow(r.Scheme, r.Power.KW(), float64(r.TimePerIter), float64(r.Factor))
		}
		section(b, t)
	}
	emit("Table VII(a) — iso-power", iso, "slowdown")
	emit("Table VII(b) — iso-time", isoT, "power_increase")
	return nil
}

// fig6CSV is the Figure 6 power-vs-time sweep as CSV series.
func fig6CSV(b *bytes.Buffer) error {
	curves, err := astra.Figure6(astra.DefaultDLRM(), astra.DefaultFigure6Options())
	if err != nil {
		return err
	}
	var rows [][]string
	for _, c := range curves {
		for _, p := range c.Points {
			rows = append(rows, []string{c.Name,
				fmt.Sprintf("%.6g", float64(p.Power)), fmt.Sprintf("%.6g", float64(p.Time))})
		}
	}
	return report.WriteCSV(b, []string{"series", "power_w", "time_s"}, rows)
}

// fig6Plot is the Figure 6 sweep as a log-log ASCII plot.
func fig6Plot(b *bytes.Buffer) error {
	curves, err := astra.Figure6(astra.DefaultDLRM(), astra.DefaultFigure6Options())
	if err != nil {
		return err
	}
	plot := report.Plot{
		Title:  "Figure 6 — time per DLRM iteration vs communication power",
		XLabel: "power (W)", YLabel: "time (s)", Width: 90, Height: 28,
	}
	for _, c := range curves {
		s := report.Series{Name: c.Name}
		for _, p := range c.Points {
			s.X = append(s.X, float64(p.Power))
			s.Y = append(s.Y, float64(p.Time))
		}
		plot.Add(s)
	}
	return plot.Render(b)
}

// table8 is Table VIII: rail cost by length, LIM cost by top speed, and the
// overall cost grid, against a 400Gb/s switch as the yardstick.
func table8(b *bytes.Buffer) error {
	r := []cost.RailCost{cost.Rail(100), cost.Rail(500), cost.Rail(1000)}
	a := report.NewTable("Table VIII(a) — total rail cost",
		"component", "USD_per_kg", "100m", "500m", "1000m")
	a.AddRow("Aluminium", float64(cost.AluminiumPerKg),
		r[0].Aluminium.String(), r[1].Aluminium.String(), r[2].Aluminium.String())
	a.AddRow("PVC (rail)", float64(cost.PVCPerKg),
		r[0].PVCRail.String(), r[1].PVCRail.String(), r[2].PVCRail.String())
	a.AddRow("PVC (vacuum tube)", float64(cost.PVCPerKg),
		r[0].PVCTube.String(), r[1].PVCTube.String(), r[2].PVCTube.String())
	a.AddRow("Total", "-", r[0].Total().String(), r[1].Total().String(), r[2].Total().String())
	section(b, a)

	l := []cost.LIMCost{cost.LIM(100), cost.LIM(200), cost.LIM(300)}
	lim := report.NewTable("Table VIII(b) — total accelerator/decelerator cost",
		"component", "USD_per_kg", "100m/s", "200m/s", "300m/s")
	lim.AddRow("Copper wire", float64(cost.CopperPerKg),
		l[0].Copper.String(), l[1].Copper.String(), l[2].Copper.String())
	lim.AddRow("VFD", "-", l[0].VFD.String(), l[1].VFD.String(), l[2].VFD.String())
	lim.AddRow("Total", "-", l[0].Total().String(), l[1].Total().String(), l[2].Total().String())
	section(b, lim)

	t := report.NewTable("Table VIII(c) — overall cost grid",
		"distance_m", "100m/s", "200m/s", "300m/s")
	grid := cost.PaperGrid()
	for i := 0; i < len(grid); i += 3 {
		row := grid[i : i+3]
		t.AddRow(float64(row[0].Length), row[0].Total.String(), row[1].Total.String(), row[2].Total.String())
	}
	section(b, t)
	fmt.Fprintf(b, "Yardstick: a large 400Gb/s switch costs about %v.\n", cost.ComparableSwitchCost)
	return nil
}

// sec5e is §V-E: the minimum DHL specification and its break-even dataset.
func sec5e(b *bytes.Buffer) error {
	r, err := core.Crossover(core.MinimumSpecConfig(), netmodel.ScenarioA0)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "Minimum specs (§V-E): launch %v, break-even dataset %v,\n"+
		"optical %v vs DHL %v per window.\n",
		r.LaunchTime, r.BreakEvenDataset, r.OpticalEnergy, r.DHLEnergy)

	g := core.FineGrid{
		Speeds:  []units.MetresPerSecond{10, 20, 200},
		Lengths: []units.Metres{10, 50},
		SSDs:    []int{1, 2, 4},
	}
	res, err := core.MinimumSpecSearch(core.MinimumSpecConfig(), g, 360*units.GB, netmodel.ScenarioA0)
	if err != nil {
		return err
	}
	if res.Best == nil {
		return fmt.Errorf("no grid point beats %v for %v", res.Scenario, res.Dataset)
	}
	var valid, wins int
	for _, p := range res.Points {
		if p.Valid {
			valid++
		}
		if p.Wins {
			wins++
		}
	}
	fmt.Fprintf(b, "\nSearch over speeds %v m/s × lengths %v m × %v SSDs for a %v dataset vs %v:\n"+
		"%d of %d points realisable, %d win; the minimum is %v (%d SSD, break-even %v).\n",
		g.Speeds, g.Lengths, g.SSDs, res.Dataset, res.Scenario, valid, len(res.Points), wins,
		res.Best.Config, res.Best.Config.Cart.Config.NumSSDs, res.Best.Crossover.BreakEvenDataset)
	return nil
}

// ablations are the ablation and discussion-section studies on the default
// configuration: docking time, acceleration, regenerative and passive
// braking, SSD density, pipelining, thermal budget, stabilisation power and
// the sneakernet baseline.
func ablations(b *bytes.Buffer) error {
	cfg := core.DefaultConfig()

	dock := report.NewTable("Docking-time sensitivity (§V-A observation a)",
		"dock_s", "launch_s", "dock_share", "bw_TB_per_s")
	drows, err := core.DockTimeSensitivity(cfg, []units.Seconds{0, 1, 2, 3, 4, 5})
	if err != nil {
		return err
	}
	for _, r := range drows {
		dock.AddRow(float64(r.DockTime), float64(r.Launch.Time), r.DockShare,
			float64(r.Launch.Bandwidth)/1e12)
	}
	section(b, dock)

	acc := report.NewTable("Acceleration vs peak power (§V-A note)",
		"accel_m_per_s2", "LIM_m", "launch_s", "extra_s", "peak_kW")
	arows, err := core.AccelerationTradeoff(cfg, []units.MetresPerSecond2{250, 500, 1000, 2000})
	if err != nil {
		return err
	}
	for _, r := range arows {
		acc.AddRow(float64(r.Acceleration), float64(r.LIMLength),
			float64(r.Launch.Time), float64(r.ExtraTime), r.Launch.PeakPower.KW())
	}
	section(b, acc)

	regen := report.NewTable("Regenerative braking (§VI, 16–70%)",
		"regen", "energy_kJ", "saving")
	rrows, err := core.RegenerativeBrakingSavings(cfg, []float64{0, 0.16, 0.3, 0.5, 0.7})
	if err != nil {
		return err
	}
	for _, r := range rrows {
		regen.AddRow(r.Regen, r.Energy.KJ(), float64(r.Saving))
	}
	section(b, regen)

	active, passive, saving, err := core.PassiveBrakeSavings(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "Passive eddy brakes (dual rail, §VI): %v → %v per launch (%v)\n",
		active, passive, saving)
	mass, lim := cfg.Cart.TotalMass, cfg.LIM.RequiredLength(cfg.MaxSpeed, cfg.Acceleration)
	brake, err := physics.BrakeForLength(mass, cfg.MaxSpeed, lim)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "Sized eddy brake: stops the %v cart from %g m/s within the %g m LIM footprint (%.2f m, %v), dissipating %v as heat.\n\n",
		mass, float64(cfg.MaxSpeed), float64(lim), brake.StoppingDistance(mass, cfg.MaxSpeed),
		brake.StoppingTime(mass, cfg.MaxSpeed), brake.DissipatedEnergy(mass, cfg.MaxSpeed))

	dens := report.NewTable("SSD density scaling (§II-A: upgrade carts, not the track)",
		"year", "ssd", "cart", "bw_TB_per_s", "GB_per_J")
	srows, err := core.DefaultDensityScaling()
	if err != nil {
		return err
	}
	for _, r := range srows {
		dens.AddRow(r.Year, r.SSDCapacity.String(), r.CartCapacity.String(),
			float64(r.Launch.Bandwidth)/1e12, r.Launch.Efficiency)
	}
	section(b, dens)

	pipe := report.NewTable("Pipelined 29 PB transfer (§V-B refinements)",
		"mode", "cadence_s", "time", "speedup_vs_TableVI")
	var inFlight []string
	for _, m := range []struct {
		name string
		opt  core.PipelineOptions
	}{
		{"single rail", core.PipelineOptions{DockStations: 1}},
		{"dual rail", core.PipelineOptions{DualRail: true, DockStations: 1}},
		{"dual rail + 4 docks + reads", core.PipelineOptions{DualRail: true, DockStations: 4, ReadRate: 227.2 * units.GBps}},
	} {
		pt, err := core.TransferPipelined(cfg, core.PaperDataset, m.opt)
		if err != nil {
			return err
		}
		pipe.AddRow(m.name, float64(pt.Cadence), pt.Time.String(), float64(pt.Speedup))
		inFlight = append(inFlight, fmt.Sprintf("%s %d", m.name, pt.CartsInFlight()))
	}
	section(b, pipe)
	fmt.Fprintf(b, "Carts in flight to sustain each pipeline: %s.\n\n", strings.Join(inFlight, ", "))

	th := report.NewTable("Thermal budget, 32-SSD cart under load (§VI)",
		"sink", "steady_C", "sustained", "sustainable_read_frac")
	for _, s := range []thermal.Sink{thermal.ConductiveFins, thermal.BareM2} {
		a, err := thermal.Analyze(thermal.CartThermals{Sink: s, NumSSDs: 32, Ambient: thermal.DefaultAmbient})
		if err != nil {
			return err
		}
		th.AddRow(s.Name, a.SteadyTemp, fmt.Sprintf("%v", a.SustainedFullLoad), a.SustainableReadFraction)
	}
	section(b, th)

	gap, _, err := physics.HalbachMassBudget(mass, cfg.Cart.MagnetMass, halbachThickness, cfg.MaxSpeed, levitationTarget)
	if err != nil {
		return err
	}
	h := physics.DefaultHalbach()
	fmt.Fprintf(b, "Levitation (§IV-A): the %v cart's %v of NdFeB, %g mm thick, holds a %.1f mm gap at %g m/s (target %g mm);\n"+
		"lift/drag L/D = %g at 50 m/s, %g at 100 m/s, %g at 200 m/s.\n\n",
		mass, cfg.Cart.MagnetMass, halbachThickness*1000, gap*1000, float64(cfg.MaxSpeed), levitationTarget*1000,
		h.LiftToDrag(50), h.LiftToDrag(100), h.LiftToDrag(200))

	stab, err := control.StabilisationPowerPerCart()
	if err != nil {
		return err
	}
	launch, err := core.Launch(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "Active stabilisation (§III-B.2): %v per cart — negligible vs the %v launch peak.\n\n",
		stab, launch.PeakPower)

	courier, err := sneakernet.DefaultCourier().Carry(core.PaperDataset, storage.WD22TB, 500)
	if err != nil {
		return err
	}
	dhl, err := core.Transfer(cfg, core.PaperDataset)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "Sneakernet baseline (§II-C): carrying 29 PB by hand = %d drives, %d trips, %v, %v wages;\n"+
		"the DHL does it in %v for %v of electricity.\n",
		courier.Drives, courier.Trips, courier.Time, courier.LaborCost, dhl.Time, dhl.Energy)
	truck, err := sneakernet.Snowmobile().Ship(100*units.PB, 500_000)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "A Snowmobile-class truck (§VII-B) ships 100 PB over 500 km in %.1f days (%.1f weeks; %d shipment, %v of diesel).\n\n",
		truck.Time.Days(), truck.Time.Days()/7, truck.Shipments, truck.FuelEnergy)

	rows, err := core.FullFactorialSweep()
	if err != nil {
		return err
	}
	worst, worstCfg := rows[0].Comparisons[0].TimeSpeedup, rows[0].Launch.Config
	for _, r := range rows {
		for _, c := range r.Comparisons {
			if c.TimeSpeedup < worst {
				worst, worstCfg = c.TimeSpeedup, r.Launch.Config
			}
		}
	}
	fmt.Fprintf(b, "Table V full factorial (%d speed × length × cart configurations, 29 PB):\n"+
		"the smallest time speedup over any route is %v, for %v.\n\n", len(rows), worst, worstCfg)

	train := report.NewTable("Training economics (§II-D.3): 2000 DLRM iterations at the DHL's power",
		"scheme", "days", "comm_MJ", "compute_MJ", "electricity")
	runs, err := astra.TrainingRun{Workload: astra.DefaultDLRM(), Iterations: 2000}.CompareRuns(astra.DefaultDHL())
	if err != nil {
		return err
	}
	for _, r := range runs {
		train.AddRow(r.Transport, r.Duration.Days(), r.CommEnergy.MJ(), r.ComputeEnergy.MJ(),
			r.TotalDollars().String())
	}
	return train.Render(b)
}
