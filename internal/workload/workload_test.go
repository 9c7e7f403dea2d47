package workload

import (
	"math"
	"testing"

	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestTableICatalogue(t *testing.T) {
	ds := []Dataset{LAION5B, YouTube8M, MassiveText, CommonCrawl, MetaML29PB,
		MetaML13PB, MetaML3PB, NIHGenomes, LHCCMSDetector, MetaDaily, YouTubeDaily}
	if LAION5B.Size != 250*units.TB {
		t.Errorf("LAION size = %v", LAION5B.Size)
	}
	if MetaML29PB.Size != 29*units.PB || MetaML13PB.Size != 13*units.PB || MetaML3PB.Size != 3*units.PB {
		t.Error("Meta ML dataset sizes wrong")
	}
	if !LHCCMSDetector.Streaming() || LHCCMSDetector.Rate != 150*units.TBps {
		t.Errorf("LHC rate = %v", LHCCMSDetector.Rate)
	}
	if LAION5B.Streaming() {
		t.Error("LAION must not be streaming")
	}
	// Meta: 4 PB/day ≈ 46.3 GB/s.
	approx(t, "Meta daily rate", float64(MetaDaily.Rate), 4e15/86400, 1e-9)
	// YouTube-8M: 350k hours at 1 GiB/hour.
	approx(t, "YouTube-8M", float64(YouTube8M.Size), 350000*math.Pow(2, 30), 1e-9)
	for _, d := range ds {
		if d.String() == "" {
			t.Errorf("%s: empty String()", d.Name)
		}
		if d.Streaming() == (d.Size > 0) {
			t.Errorf("%s: exactly one of Size/Rate must be set", d.Name)
		}
	}
}

func TestTableIVModels(t *testing.T) {
	ms := []Model{GPT3, Jurassic1, Gopher, M610T, MegatronNLG, DLRM2022}
	// Table IV sizes at 32-bit params.
	approx(t, "GPT-3", float64(GPT3.Size()), 700e9, 1e-12)
	approx(t, "Jurassic-1", float64(Jurassic1.Size()), 712e9, 1e-12)
	approx(t, "Gopher", float64(Gopher.Size()), 1.12e12, 1e-12)
	approx(t, "M6-10T", float64(M610T.Size()), 40e12, 1e-12)
	approx(t, "Megatron-Turing", float64(MegatronNLG.Size()), 4e12, 1e-12)
	approx(t, "DLRM 2022", float64(DLRM2022.Size()), 48e12, 1e-12)
	for _, m := range ms {
		if m.String() == "" {
			t.Errorf("%s: empty String()", m.Name)
		}
	}
}

func TestPhysicsBurst(t *testing.T) {
	tr, err := DefaultPhysicsBurst().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 10 {
		t.Fatalf("bursts = %d", len(tr))
	}
	// 2 s of 150 TB/s = 300 TB per burst.
	if tr[0].Size != 300*units.TB {
		t.Errorf("burst size = %v", tr[0].Size)
	}
	if tr.TotalBytes() != 3*units.PB {
		t.Errorf("total = %v", tr.TotalBytes())
	}
	if tr[3].At != 1800 {
		t.Errorf("arrival = %v", tr[3].At)
	}
	bad := DefaultPhysicsBurst()
	bad.Bursts = 0
	if _, err := bad.Generate(); err == nil {
		t.Error("zero bursts must error")
	}
}

func TestBulkBackup(t *testing.T) {
	tr, err := DefaultBulkBackup().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 7 {
		t.Fatalf("backups = %d", len(tr))
	}
	for _, x := range tr {
		if x.Size < 3.2*units.PB || x.Size > 4.8*units.PB {
			t.Errorf("backup size %v outside ±20%% of 4PB", x.Size)
		}
	}
	// Deterministic for a fixed seed.
	tr2, _ := DefaultBulkBackup().Generate()
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatal("backup trace not deterministic")
		}
	}
	bad := DefaultBulkBackup()
	bad.Jitter = 1
	if _, err := bad.Generate(); err == nil {
		t.Error("jitter ≥ 1 must error")
	}
	bad = DefaultBulkBackup()
	bad.MeanSize = 0
	if _, err := bad.Generate(); err == nil {
		t.Error("zero size must error")
	}
}
