package dhlsys_test

import (
	"fmt"
	"log"

	"repro/internal/cart"
	"repro/internal/core"
	"repro/internal/dhlsys"
	"repro/internal/netmodel"
	"repro/internal/storage"
	"repro/internal/track"
	"repro/internal/units"
	"repro/internal/workload"
)

// ExampleSystem_Shuttle runs the §II-D.2 data-centre bulk-backup setting
// through the event-driven simulation: a week of nightly multi-PB backups
// shuttled by a four-cart dual-rail fleet, with in-flight SSD failures
// ameliorated by RAID5 (§III-D), against the cross-aisle network route C.
func ExampleSystem_Shuttle() {
	trace, err := workload.DefaultBulkBackup().Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Bulk backup trace: %d backups, %v total\n\n", len(trace), trace.TotalBytes())

	opt := dhlsys.DefaultOptions()
	opt.NumCarts = 4
	opt.DockStations = 4
	opt.RailMode = track.DualRail
	opt.RAID = storage.RAID5
	opt.FailureRate = 0.05 // 5% of launches lose one SSD in flight
	opt.Seed = 2024

	var totalDur units.Seconds
	var totalEnergy units.Joules
	for _, b := range trace {
		sys, err := dhlsys.New(opt)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Shuttle(dhlsys.ShuttleOptions{Dataset: b.Size, ReadAtEndpoint: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %-7v %3d deliveries in %-8v (%2d SSD failures, %d redeliveries)\n",
			b.Label, b.Size, res.Deliveries, res.Duration, sys.Stats().FailuresSeen, res.Retries)
		totalDur += res.Duration
		totalEnergy += res.Energy
	}

	netTime := netmodel.TransferTime(trace.TotalBytes())
	netEnergy := netmodel.ScenarioC.Power().Energy(trace.TotalBytes())
	fmt.Printf("\nDHL total:   %v moving time, %v launch energy\n", totalDur, totalEnergy)
	fmt.Printf("Network (C): %v on one 400Gb/s link, %v\n", netTime, netEnergy)
	fmt.Printf("%.0fx less transfer energy on the DHL\n", float64(netEnergy)/float64(totalEnergy))
	// Output:
	// Bulk backup trace: 7 backups, 28.5PB total
	//
	// backup-0  4.17PB   17 deliveries in 1.59h    ( 2 SSD failures, 0 redeliveries)
	// backup-1  4.7PB    19 deliveries in 1.6h     ( 2 SSD failures, 0 redeliveries)
	// backup-2  4.26PB   17 deliveries in 1.59h    ( 2 SSD failures, 0 redeliveries)
	// backup-3  3.9PB    16 deliveries in 1.29h    ( 2 SSD failures, 0 redeliveries)
	// backup-4  3.88PB   16 deliveries in 1.29h    ( 2 SSD failures, 0 redeliveries)
	// backup-5  4.3PB    17 deliveries in 1.59h    ( 2 SSD failures, 0 redeliveries)
	// backup-6  3.31PB   13 deliveries in 1.27h    ( 2 SSD failures, 0 redeliveries)
	//
	// DHL total:   10.2h moving time, 3.46MJ launch energy
	// Network (C): 6.6d on one 400Gb/s link, 294MJ
	// 85x less transfer energy on the DHL
}

// Example_physicsBurst is the §II-D.1 experimental-physics setting: shipping
// unfiltered LHC CMS detector captures (150 TB/s bursts) off-site on a DHL
// instead of filtering them on radiation-hardened ASICs.
func Example_physicsBurst() {
	trace, err := workload.DefaultPhysicsBurst().Generate()
	if err != nil {
		log.Fatal(err)
	}
	burst := trace[0].Size
	fmt.Printf("CMS detector: %v; capturing %v per experiment (%d experiments)\n",
		workload.LHCCMSDetector.Rate, burst, len(trace))

	// One burst needs 38 M.2 SSDs; the 64-SSD (512 TB) cart leaves headroom.
	n := storage.SabrentRocket4Plus.DrivesFor(burst)
	needed, err := cart.New(cart.DefaultConfig().WithSSDs(n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("One burst fits on %d × 8 TB M.2 (%v cart); using the 512 TB cart.\n",
		n, needed.TotalMass)

	// A long DHL to an off-site facility: 1 km at 300 m/s.
	cfg := core.DefaultConfig().With(300, 1000, 64)
	launch, err := core.Launch(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v: %v per launch, %v, %v embodied bandwidth\n",
		cfg, launch.Energy, launch.Time, launch.Bandwidth)

	period := trace[1].At - trace[0].At
	fmt.Printf("Each burst ships on one cart in %v; experiments every %v.\n", launch.Time, period)

	netTime := netmodel.TransferTime(burst)
	fmt.Printf("One burst over a 400Gb/s link: %v (%.0fx slower)\n",
		netTime, float64(netTime)/float64(launch.Time))
	fmt.Printf("Sustaining 150 TB/s optically would need %.0f parallel links.\n",
		float64(workload.LHCCMSDetector.Rate)/float64(netmodel.LinkBandwidth()))
	// Output:
	// CMS detector: 150TB/s; capturing 300TB per experiment (10 experiments)
	// One burst fits on 38 × 8 TB M.2 (327g cart); using the 512 TB cart.
	// DHL-300-1000-512: 62.9kJ per launch, 9.48s, 54TB/s embodied bandwidth
	// Each burst ships on one cart in 9.48s; experiments every 10min.
	// One burst over a 400Gb/s link: 1.67h (633x slower)
	// Sustaining 150 TB/s optically would need 3000 parallel links.
}
