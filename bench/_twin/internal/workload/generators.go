package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/bench/_twin/internal/units"
)

// Transfer is one bulk data-movement demand presented to a DHL or network.
type Transfer struct {
	// At is the arrival time of the demand.
	At units.Seconds
	// Size of the transfer.
	Size units.Bytes
	// Label describes the source (for reporting).
	Label string
}

// Trace is a time-ordered sequence of transfer demands.
type Trace []Transfer

// TotalBytes sums the trace's demand.
func (t Trace) TotalBytes() units.Bytes {
	var s units.Bytes
	for _, x := range t {
		s += x.Size
	}
	return s
}

// Validate checks time ordering and positive sizes.
func (t Trace) Validate() error {
	var prev units.Seconds
	for i, x := range t {
		if x.Size <= 0 {
			return fmt.Errorf("workload: transfer %d has non-positive size %v", i, x.Size)
		}
		if x.At < prev {
			return fmt.Errorf("workload: transfer %d out of order (%v after %v)", i, x.At, prev)
		}
		prev = x.At
	}
	return nil
}

// PhysicsBurst models the §II-D.1 experimental-physics setting: a detector
// producing Rate for BurstLen per experiment, with experiments every Period.
// Each burst becomes one bulk transfer of Rate × BurstLen (the unfiltered
// sensor capture the paper proposes to ship off-site).
type PhysicsBurst struct {
	Rate     units.BytesPerSecond
	BurstLen units.Seconds
	Period   units.Seconds
	Bursts   int
}

// DefaultPhysicsBurst captures 2 s of the CMS detector's 150 TB/s every
// 10 minutes, ten times.
func DefaultPhysicsBurst() PhysicsBurst {
	return PhysicsBurst{Rate: LHCCMSDetector.Rate, BurstLen: 2, Period: 600, Bursts: 10}
}

// Generate builds the trace.
func (p PhysicsBurst) Generate() (Trace, error) {
	if p.Rate <= 0 || p.BurstLen <= 0 || p.Period <= 0 || p.Bursts < 1 {
		return nil, errors.New("workload: physics burst parameters must be positive")
	}
	size := units.Bytes(float64(p.Rate) * float64(p.BurstLen))
	tr := make(Trace, p.Bursts)
	for i := range tr {
		tr[i] = Transfer{
			At:    units.Seconds(float64(i) * float64(p.Period)),
			Size:  size,
			Label: fmt.Sprintf("experiment-%d", i),
		}
	}
	return tr, nil
}

// BulkBackup models §II-D.2: periodic multi-PB backups in discrete chunks,
// with sizes jittered around a mean (backups grow with the live dataset).
type BulkBackup struct {
	MeanSize units.Bytes
	// Jitter is the ± fractional size variation.
	Jitter float64
	Period units.Seconds
	Count  int
	Seed   int64
}

// DefaultBulkBackup is a nightly 4 PB backup (Meta's daily creation rate,
// Table I) over a week, ±20 %.
func DefaultBulkBackup() BulkBackup {
	return BulkBackup{MeanSize: 4 * units.PB, Jitter: 0.2, Period: 86400, Count: 7, Seed: 1}
}

// Generate builds the trace deterministically from the seed.
func (b BulkBackup) Generate() (Trace, error) {
	return b.GenerateWith(rand.New(rand.NewSource(b.Seed)))
}

// GenerateWith builds the trace drawing jitter from an injected generator,
// for callers that thread one seeded *rand.Rand through a whole scenario.
// Passing rand.New(rand.NewSource(b.Seed)) reproduces Generate exactly.
func (b BulkBackup) GenerateWith(rng *rand.Rand) (Trace, error) {
	if rng == nil {
		return nil, errors.New("workload: nil random generator")
	}
	if b.MeanSize <= 0 || b.Period <= 0 || b.Count < 1 {
		return nil, errors.New("workload: backup parameters must be positive")
	}
	if b.Jitter < 0 || b.Jitter >= 1 {
		return nil, fmt.Errorf("workload: jitter must be in [0,1), got %v", b.Jitter)
	}
	tr := make(Trace, b.Count)
	for i := range tr {
		f := 1 + b.Jitter*(2*rng.Float64()-1)
		tr[i] = Transfer{
			At:    units.Seconds(float64(i) * float64(b.Period)),
			Size:  units.Bytes(float64(b.MeanSize) * f),
			Label: fmt.Sprintf("backup-%d", i),
		}
	}
	return tr, nil
}

// MLEpochs models §II-D.3: the same training dataset re-shipped once per
// model trained on it ("these same datasets must be used again and again to
// train a variety of different models").
type MLEpochs struct {
	Dataset units.Bytes
	// Models trained back-to-back.
	Models int
	// Gap between training runs.
	Gap units.Seconds
}

// DefaultMLEpochs ships the 29 PB dataset to 5 successive model trainings a
// day apart.
func DefaultMLEpochs() MLEpochs {
	return MLEpochs{Dataset: MetaML29PB.Size, Models: 5, Gap: 86400}
}

// Generate builds the trace.
func (m MLEpochs) Generate() (Trace, error) {
	if m.Dataset <= 0 || m.Models < 1 || m.Gap < 0 {
		return nil, errors.New("workload: ML epoch parameters must be positive")
	}
	tr := make(Trace, m.Models)
	for i := range tr {
		tr[i] = Transfer{
			At:    units.Seconds(float64(i) * float64(m.Gap)),
			Size:  m.Dataset,
			Label: fmt.Sprintf("model-%d", i),
		}
	}
	return tr, nil
}
