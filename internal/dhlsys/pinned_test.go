package dhlsys

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/track"
)

// pinnedShuttle is one cell of the pinned-digest grid.
type pinnedShuttle struct {
	raid     storage.RAIDLevel
	rail     track.RailMode
	scenario string // "" = no fault script
	strict   bool
	rate     float64 // per-launch SSD failure probability
	seed     int64
}

func (p pinnedShuttle) name() string {
	sc := p.scenario
	if sc == "" {
		sc = "none"
	}
	return fmt.Sprintf("%v/%v/%s/strict=%t/rate=%g/seed=%d", p.raid, p.rail, sc, p.strict, p.rate, p.seed)
}

// telemetryOn instruments the odd seeds, so both the instrumented and the
// bare paths are pinned.
func (p pinnedShuttle) telemetryOn() bool { return p.seed%2 == 1 }

// pinnedGrid is RAID0/RAID5 × single/dual rail × {no faults, per-launch
// SSD dice, rough-day, ssd-storm non-strict, ssd-storm strict} × seeds 1–3.
func pinnedGrid() []pinnedShuttle {
	type variant struct {
		scenario string
		strict   bool
		rate     float64
	}
	variants := []variant{
		{},
		{rate: 0.25},
		{scenario: faults.ScenarioRoughDay},
		{scenario: faults.ScenarioSSDStorm},
		{scenario: faults.ScenarioSSDStorm, strict: true},
	}
	var out []pinnedShuttle
	for _, raid := range []storage.RAIDLevel{storage.RAID0, storage.RAID5} {
		for _, rail := range []track.RailMode{track.SingleRail, track.DualRail} {
			for _, v := range variants {
				for seed := int64(1); seed <= 3; seed++ {
					out = append(out, pinnedShuttle{raid: raid, rail: rail,
						scenario: v.scenario, strict: v.strict, rate: v.rate, seed: seed})
				}
			}
		}
	}
	return out
}

// run executes the cell's bulk transfer with endpoint reads and returns the
// sha256 of the result, the stats and their exact float values, plus the sha256 of the Chrome trace when
// the cell is instrumented ("" otherwise).
func (p pinnedShuttle) run(t *testing.T) (state, trace string) {
	t.Helper()
	opt := DefaultOptions()
	opt.NumCarts = 3
	opt.DockStations = 2
	opt.RAID = p.raid
	opt.RailMode = p.rail
	opt.Seed = p.seed
	opt.FailureRate = p.rate
	opt.Recovery.StrictSSD = p.strict
	dataset := 6 * opt.Core.Cart.Capacity()
	if p.scenario != "" {
		an, err := core.Transfer(opt.Core, dataset)
		if err != nil {
			t.Fatal(err)
		}
		script, err := faults.ScenarioDims(p.scenario, p.seed, an.Time*1.1, opt.FaultDims())
		if err != nil {
			t.Fatal(err)
		}
		opt.Faults = &script
	}
	if p.telemetryOn() {
		opt.Telemetry = telemetry.NewSet()
	}
	sys, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Shuttle(ShuttleOptions{Dataset: dataset, ReadAtEndpoint: true})
	if err != nil {
		t.Fatalf("%s: %v", p.name(), err)
	}
	// The %+v rendering rounds units for display; the exact line pins
	// every float the run accumulates to the bit.
	st := sys.Stats()
	exact := []float64{float64(res.Duration), float64(res.Energy), float64(res.BytesDelivered),
		float64(st.Energy), float64(st.BytesRead), float64(st.BytesWritten), float64(st.DegradedBytes),
		float64(st.StallTime), float64(st.BackoffWait), float64(st.MaintenanceTime)}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v\n%v", res, st, exact)))
	state = hex.EncodeToString(sum[:])
	if opt.Telemetry != nil {
		b, err := telemetry.ChromeTrace(opt.Telemetry.Spans)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		trace = hex.EncodeToString(sum[:])
	}
	return state, trace
}

// TestShuttleResultsMatchPinnedDigests pins every cell's shuttle result,
// stats and (when instrumented) Chrome trace to digests recorded before
// the storage census, dense cart table and slice-backed library replaced
// the multi-pass array bookkeeping and the cart and library maps. The
// determinism tests compare a run with itself; this one compares it with
// the code it replaced.
func TestShuttleResultsMatchPinnedDigests(t *testing.T) {
	grid := pinnedGrid()
	if len(grid) != len(pinnedShuttleDigests) {
		t.Fatalf("grid has %d cells, %d digests pinned", len(grid), len(pinnedShuttleDigests))
	}
	for i, p := range grid {
		state, trace := p.run(t)
		want := pinnedShuttleDigests[i]
		if state != want.state || trace != want.trace {
			t.Errorf("%s:\n got {%q, %q}\nwant {%q, %q}", p.name(), state, trace, want.state, want.trace)
		}
	}
}

// pinnedShuttleDigests holds {state, trace} per pinnedGrid cell, in grid
// order.
var pinnedShuttleDigests = []struct{ state, trace string }{
	{"3f4641a1fcda5a83f33ca59d63e467adf8cfde756bdd50f815508e3331866a53", "594f125d5644eb058f08dfd43552c9569f80e09d2dc25490058050735ff53f47"}, // RAID0/single-rail/none/strict=false/rate=0/seed=1
	{"3f4641a1fcda5a83f33ca59d63e467adf8cfde756bdd50f815508e3331866a53", ""},                                                                 // RAID0/single-rail/none/strict=false/rate=0/seed=2
	{"3f4641a1fcda5a83f33ca59d63e467adf8cfde756bdd50f815508e3331866a53", "594f125d5644eb058f08dfd43552c9569f80e09d2dc25490058050735ff53f47"}, // RAID0/single-rail/none/strict=false/rate=0/seed=3
	{"190708a995f4189157788efe390c9aa9fd24b5eb8086a80937eeefd0ad5a68b6", "ac7861ca2798335bba707106b3280ad983dbde907b88f0060c541979a7ae3f3d"}, // RAID0/single-rail/none/strict=false/rate=0.25/seed=1
	{"0d5a206e75a6792078404ac6fa9db16937caff0966a8560ba68af8a0704376b6", ""},                                                                 // RAID0/single-rail/none/strict=false/rate=0.25/seed=2
	{"32be7e74c727d31bfeefca5deed3be647fa5e4db0f7d132180636d26309c52f7", "b32b017dcd33aa653f82710d9b53be91b8029e4414958f97d9ce5163502de075"}, // RAID0/single-rail/none/strict=false/rate=0.25/seed=3
	{"a69f2a2af2f723bfb30f76f6b6b47354235faf5c778c0f8a71128a602aadf16b", "aaae53cba2b059dc4036d0b36dcbd6dc46b754a25ec3726172737839854f99c2"}, // RAID0/single-rail/rough-day/strict=false/rate=0/seed=1
	{"0100e8825899ecab9457e4a71556d83bc4c4adde7269c309f0cd7194ff7473de", ""},                                                                 // RAID0/single-rail/rough-day/strict=false/rate=0/seed=2
	{"e4faa33403997dc712dc52366174b586d6a51ea2cfdb9ffef07cceafedc389e0", "ee88c18c4a839078523748d6df5e869e01b050e75c4c0536a3cf7bdbc1ca8076"}, // RAID0/single-rail/rough-day/strict=false/rate=0/seed=3
	{"9d68e8dbcb055a3ae770d8f35b0377dc0d54c7c8da0111b0b57471c7e046cfbe", "cc03c6008a4055bf499ce2c39fd78341d427ec73c4b49f2a201b53b889e89577"}, // RAID0/single-rail/ssd-storm/strict=false/rate=0/seed=1
	{"4849b58a06899ed834e168e505c58ddbd580633c3367d0f317d33ed60eb17cf4", ""},                                                                 // RAID0/single-rail/ssd-storm/strict=false/rate=0/seed=2
	{"07f0e663ae8ee1268f27310757cc22d5ed029dcd690c056c55aad0304ac391b0", "5e35bd6a60901c3a65e0ea9313fd16cded284514010301cd2862e4d9261f6423"}, // RAID0/single-rail/ssd-storm/strict=false/rate=0/seed=3
	{"593a12418074be67681f3a357e5e843ddcad6b5a757a275280211a9373d2c513", "d7f173d5663d0f84618614e059b19f6afdad8accf78db25c90bd364dcade3612"}, // RAID0/single-rail/ssd-storm/strict=true/rate=0/seed=1
	{"59d6c8d06ac293a0e09c610446443ea8df10a92e90d539f6a9a1eabadb47753a", ""},                                                                 // RAID0/single-rail/ssd-storm/strict=true/rate=0/seed=2
	{"07f0e663ae8ee1268f27310757cc22d5ed029dcd690c056c55aad0304ac391b0", "5e35bd6a60901c3a65e0ea9313fd16cded284514010301cd2862e4d9261f6423"}, // RAID0/single-rail/ssd-storm/strict=true/rate=0/seed=3
	{"8bc43aa57ca732f5bf6dc76ca474da8687d14786327418339cd9a78782749106", "2f587cc319b56cf104e1f785a14937d5ad39c6dd6ff3e3f361f283e3b1546636"}, // RAID0/dual-rail/none/strict=false/rate=0/seed=1
	{"8bc43aa57ca732f5bf6dc76ca474da8687d14786327418339cd9a78782749106", ""},                                                                 // RAID0/dual-rail/none/strict=false/rate=0/seed=2
	{"8bc43aa57ca732f5bf6dc76ca474da8687d14786327418339cd9a78782749106", "2f587cc319b56cf104e1f785a14937d5ad39c6dd6ff3e3f361f283e3b1546636"}, // RAID0/dual-rail/none/strict=false/rate=0/seed=3
	{"99251cf7aea3e19928a2f10414a4709d0125225e7162d4427f26750588028390", "cdfb8dd7d7753cc002942c92479ea93360661a5e7338e398e7d7cd0ef878e77b"}, // RAID0/dual-rail/none/strict=false/rate=0.25/seed=1
	{"a7d64a8f31d9f79adffcc60b2104308e5f97573bcb1bf0dd8ea493b0aa5b52e0", ""},                                                                 // RAID0/dual-rail/none/strict=false/rate=0.25/seed=2
	{"9a2aeb309c5b1d1d71b184c4aa8db7467fd116815f2fe7406a3ddf453cdb0a63", "d066996234e624c87f19100c44a67af727db6d913c74fef63e6d946a0468f1b6"}, // RAID0/dual-rail/none/strict=false/rate=0.25/seed=3
	{"a69f2a2af2f723bfb30f76f6b6b47354235faf5c778c0f8a71128a602aadf16b", "aaae53cba2b059dc4036d0b36dcbd6dc46b754a25ec3726172737839854f99c2"}, // RAID0/dual-rail/rough-day/strict=false/rate=0/seed=1
	{"a94b246afeea3fa081de88282919ace85e935b9d97c922ffaf37c601f370e489", ""},                                                                 // RAID0/dual-rail/rough-day/strict=false/rate=0/seed=2
	{"bba3135fe0aaee80605e570d06494d125c344b3d37eed626861034e067a39fe8", "b4c96cd886fea14419e36e03ff871e543f98025548fc831453d0d2195e9a9ca7"}, // RAID0/dual-rail/rough-day/strict=false/rate=0/seed=3
	{"931c8e9921ccd7f96756bc972c76cbe5016dd76589303240a370449074dca6a1", "e865583d041f536fb8879c9ca50867cf36c6c7bfee86a12b12c374228658e9cb"}, // RAID0/dual-rail/ssd-storm/strict=false/rate=0/seed=1
	{"4e7d183c0bff1ed9078cfe16d271af25a41b2cb4bd7243dff6057eb811582d37", ""},                                                                 // RAID0/dual-rail/ssd-storm/strict=false/rate=0/seed=2
	{"4e99adf55388f6159cb1d2b3685ab6fe20a84e29c97183497d821703f200c1a4", "3466b4b355a3428571de2e99832dba91c931dbf70c0d88aefc0c7b288633a8f2"}, // RAID0/dual-rail/ssd-storm/strict=false/rate=0/seed=3
	{"593a12418074be67681f3a357e5e843ddcad6b5a757a275280211a9373d2c513", "d7f173d5663d0f84618614e059b19f6afdad8accf78db25c90bd364dcade3612"}, // RAID0/dual-rail/ssd-storm/strict=true/rate=0/seed=1
	{"59d6c8d06ac293a0e09c610446443ea8df10a92e90d539f6a9a1eabadb47753a", ""},                                                                 // RAID0/dual-rail/ssd-storm/strict=true/rate=0/seed=2
	{"4e99adf55388f6159cb1d2b3685ab6fe20a84e29c97183497d821703f200c1a4", "3466b4b355a3428571de2e99832dba91c931dbf70c0d88aefc0c7b288633a8f2"}, // RAID0/dual-rail/ssd-storm/strict=true/rate=0/seed=3
	{"09364a3d351a9144b74c4074ea158080347f050cef12d450cbcb075052f8844d", "594f125d5644eb058f08dfd43552c9569f80e09d2dc25490058050735ff53f47"}, // RAID5/single-rail/none/strict=false/rate=0/seed=1
	{"09364a3d351a9144b74c4074ea158080347f050cef12d450cbcb075052f8844d", ""},                                                                 // RAID5/single-rail/none/strict=false/rate=0/seed=2
	{"09364a3d351a9144b74c4074ea158080347f050cef12d450cbcb075052f8844d", "594f125d5644eb058f08dfd43552c9569f80e09d2dc25490058050735ff53f47"}, // RAID5/single-rail/none/strict=false/rate=0/seed=3
	{"814e43b50d7a0ffb75446e066d7c7d9e775bc56abc2a2b868997a727dc485bde", "4e79e8f798fe997c74cf0534bb207cfcb1070b120e671f671da3e2991d96b6d8"}, // RAID5/single-rail/none/strict=false/rate=0.25/seed=1
	{"66eb596f9b75a61a6fc290cb26e588733dcb5cd754505ad38816db3332e346c1", ""},                                                                 // RAID5/single-rail/none/strict=false/rate=0.25/seed=2
	{"92e731e4a0c3407f1b8d75c8d5a56c229fc7af500a81890334ee15fb981e6b67", "2198cca40583bcb764f1b515a687cfdbca44768a64200ae59c6d9d151af19f00"}, // RAID5/single-rail/none/strict=false/rate=0.25/seed=3
	{"e105bf018a9dab443bd3b7fbc84a1cffc04ffb3ffca72ce907dbc44df76c8665", "0d9b107c76d39fc572030aae81d6ddc09afea29f0d66ceb82e8ad1658e857d0e"}, // RAID5/single-rail/rough-day/strict=false/rate=0/seed=1
	{"1dcbefc284be5e0875808d6109056da919c4acbf7245d375968278ed14b93fae", ""},                                                                 // RAID5/single-rail/rough-day/strict=false/rate=0/seed=2
	{"c784481f7e94b7b857f0796375a5f9a9f72569a606f55f7c667d999fcb5b4010", "ee88c18c4a839078523748d6df5e869e01b050e75c4c0536a3cf7bdbc1ca8076"}, // RAID5/single-rail/rough-day/strict=false/rate=0/seed=3
	{"37714d0ac03b5beff38feaf5d2ae99bcbf828689dcfc5f1884342c229ac8b761", "f49f47fa1507a2ba785d4324d5cd099346ed1c6d314d45066df2fcb9e7a31886"}, // RAID5/single-rail/ssd-storm/strict=false/rate=0/seed=1
	{"6f0e17855fa56ad752594c21665a3a1b0b6d20fe187585e8c1bd84d77c87ef38", ""},                                                                 // RAID5/single-rail/ssd-storm/strict=false/rate=0/seed=2
	{"66eb596f9b75a61a6fc290cb26e588733dcb5cd754505ad38816db3332e346c1", "5e35bd6a60901c3a65e0ea9313fd16cded284514010301cd2862e4d9261f6423"}, // RAID5/single-rail/ssd-storm/strict=false/rate=0/seed=3
	{"d0875f7ddcede1d0b6b8d15b42eb2c8279229ce4f899ef7d8c66fd4975050423", "d7f173d5663d0f84618614e059b19f6afdad8accf78db25c90bd364dcade3612"}, // RAID5/single-rail/ssd-storm/strict=true/rate=0/seed=1
	{"345655afc102b4bdb70f2f8f31140747a4b7f985cbde870df238484f677eff8a", ""},                                                                 // RAID5/single-rail/ssd-storm/strict=true/rate=0/seed=2
	{"66eb596f9b75a61a6fc290cb26e588733dcb5cd754505ad38816db3332e346c1", "5e35bd6a60901c3a65e0ea9313fd16cded284514010301cd2862e4d9261f6423"}, // RAID5/single-rail/ssd-storm/strict=true/rate=0/seed=3
	{"abcca78b3bf080344a45762b409f40c596e8359fb00871ef5136157eef282c83", "2f587cc319b56cf104e1f785a14937d5ad39c6dd6ff3e3f361f283e3b1546636"}, // RAID5/dual-rail/none/strict=false/rate=0/seed=1
	{"abcca78b3bf080344a45762b409f40c596e8359fb00871ef5136157eef282c83", ""},                                                                 // RAID5/dual-rail/none/strict=false/rate=0/seed=2
	{"abcca78b3bf080344a45762b409f40c596e8359fb00871ef5136157eef282c83", "2f587cc319b56cf104e1f785a14937d5ad39c6dd6ff3e3f361f283e3b1546636"}, // RAID5/dual-rail/none/strict=false/rate=0/seed=3
	{"7c0589bdd4e7d5ac2ca8def3cb03e3254ed6be6e45dd8276341b79669119f005", "a0221f3ae17c11324449b5ceb53173dc7dfd1c11e195ac6a870dc8e9893c66f6"}, // RAID5/dual-rail/none/strict=false/rate=0.25/seed=1
	{"c6d48c7caaf38fde8f65d4a80bcd110840046e9ca32b76e578e74efa1d5482a1", ""},                                                                 // RAID5/dual-rail/none/strict=false/rate=0.25/seed=2
	{"59d1611457df7a2aefab255235d7708efc7bf7dde035311225e099b099f8fc26", "757a825a13393a7c0fda35d283cecbfd910c13ebb44d95d178d09bab1699d021"}, // RAID5/dual-rail/none/strict=false/rate=0.25/seed=3
	{"778d6b6e12bdea300325ece9d982c5f265ecf180120a4c30a359acd28cbc3077", "eb3065636c38ac482bd9d54d908e2e5b293d00bcfb2dc670d797a692d8a63af2"}, // RAID5/dual-rail/rough-day/strict=false/rate=0/seed=1
	{"f05716d62b7bbda9de157569cc2e6d4f9d2af6a6bd1fd1cde9acffc9a046d6a2", ""},                                                                 // RAID5/dual-rail/rough-day/strict=false/rate=0/seed=2
	{"212bb2e6790c459e2fa577b3dc0216f648347bd3694382c182bb4f00cc316b12", "b4c96cd886fea14419e36e03ff871e543f98025548fc831453d0d2195e9a9ca7"}, // RAID5/dual-rail/rough-day/strict=false/rate=0/seed=3
	{"37714d0ac03b5beff38feaf5d2ae99bcbf828689dcfc5f1884342c229ac8b761", "f49f47fa1507a2ba785d4324d5cd099346ed1c6d314d45066df2fcb9e7a31886"}, // RAID5/dual-rail/ssd-storm/strict=false/rate=0/seed=1
	{"6f0e17855fa56ad752594c21665a3a1b0b6d20fe187585e8c1bd84d77c87ef38", ""},                                                                 // RAID5/dual-rail/ssd-storm/strict=false/rate=0/seed=2
	{"c6d48c7caaf38fde8f65d4a80bcd110840046e9ca32b76e578e74efa1d5482a1", "3466b4b355a3428571de2e99832dba91c931dbf70c0d88aefc0c7b288633a8f2"}, // RAID5/dual-rail/ssd-storm/strict=false/rate=0/seed=3
	{"d0875f7ddcede1d0b6b8d15b42eb2c8279229ce4f899ef7d8c66fd4975050423", "d7f173d5663d0f84618614e059b19f6afdad8accf78db25c90bd364dcade3612"}, // RAID5/dual-rail/ssd-storm/strict=true/rate=0/seed=1
	{"345655afc102b4bdb70f2f8f31140747a4b7f985cbde870df238484f677eff8a", ""},                                                                 // RAID5/dual-rail/ssd-storm/strict=true/rate=0/seed=2
	{"c6d48c7caaf38fde8f65d4a80bcd110840046e9ca32b76e578e74efa1d5482a1", "3466b4b355a3428571de2e99832dba91c931dbf70c0d88aefc0c7b288633a8f2"}, // RAID5/dual-rail/ssd-storm/strict=true/rate=0/seed=3
}
