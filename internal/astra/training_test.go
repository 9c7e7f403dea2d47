package astra

import (
	"testing"

	"repro/internal/netmodel"
)

func TestTrainingRunValidation(t *testing.T) {
	run := TrainingRun{Workload: DefaultDLRM(), Iterations: 0}
	if _, err := run.Evaluate(DefaultDHL()); err == nil {
		t.Error("zero iterations must error")
	}
	run = TrainingRun{Workload: DLRM{}, Iterations: 1}
	if _, err := run.Evaluate(DefaultDHL()); err == nil {
		t.Error("invalid workload must error")
	}
}

func TestTrainingRunDHL(t *testing.T) {
	run := TrainingRun{Workload: DefaultDLRM(), Iterations: 10}
	rc, err := run.Evaluate(DefaultDHL())
	if err != nil {
		t.Fatal(err)
	}
	if rc.Transport != "DHL-200-500-256" {
		t.Errorf("transport = %q", rc.Transport)
	}
	// 10 iterations of ~1374 s.
	approx(t, "duration", float64(rc.Duration), 10*1374, 0.01)
	if rc.CommEnergy <= 0 || rc.ComputeEnergy <= 0 {
		t.Fatal("energies must be positive")
	}
	// On a DHL, ingest energy is a rounding error next to compute: the
	// paper's pitch in §II-D.3.
	if rc.IngestDominates {
		t.Error("DHL ingest must not dominate compute energy")
	}
	if rc.TotalDollars() != rc.CommDollars+rc.ComputeDollars {
		t.Error("dollar sum mismatch")
	}
}

func TestIngestDominatesOnSlowNetwork(t *testing.T) {
	// Meta's observation ([106], §II-D.3): on network-fed training, data
	// ingestion energy can exceed computation. Route C at the DHL's budget
	// stretches iterations ~117× — its comm energy beats the cluster's
	// during-ingest share in the comparison below.
	run := TrainingRun{Workload: DefaultDLRM(), Iterations: 5}
	rows, err := run.CompareRuns(DefaultDHL())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Transport != "DHL-200-500-256" {
		t.Errorf("first row = %q", rows[0].Transport)
	}
	// All network runs are slower and burn more communication energy.
	for _, r := range rows[1:] {
		if r.Duration <= rows[0].Duration {
			t.Errorf("%s duration %v should exceed DHL %v", r.Transport, r.Duration, rows[0].Duration)
		}
		if r.CommEnergy <= rows[0].CommEnergy {
			t.Errorf("%s comm energy %v should exceed DHL %v", r.Transport, r.CommEnergy, rows[0].CommEnergy)
		}
	}
	// The paper's "several million dollars" scale: a long DLRM campaign
	// (thousands of iterations) on network substrates reaches millions.
	big := TrainingRun{Workload: DefaultDLRM(), Iterations: 2000}
	c, err := big.Evaluate(mustOptical(t, netmodel.ScenarioC, 3.4))
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalDollars() < 1_000_000 {
		t.Errorf("2000-iteration network campaign = %v, want ≥ $1M", c.TotalDollars())
	}
}

func TestOpticalByName(t *testing.T) {
	if _, err := opticalByName("A2", 1750); err != nil {
		t.Fatal(err)
	}
	if _, err := opticalByName("Z9", 1750); err == nil {
		t.Error("unknown scheme must error")
	}
}
