package core

import "repro/internal/units"

// TableVIRow is one evaluated configuration of the paper's Table VI: the
// single-launch metrics plus the 29 PB comparison columns.
type TableVIRow struct {
	Launch      LaunchMetrics
	Transfer    BulkTransfer
	Comparisons []Comparison // A0, A1, A2, B, C in order
}

// DesignSpaceConfigs returns the 13 configurations of Table VI in paper
// order: a speed sweep, a length sweep, a capacity sweep (all around the
// default), and the four speed×capacity corners.
func DesignSpaceConfigs() []Config {
	base := DefaultConfig()
	return []Config{
		// Speed sweep at 500 m / 256 TB.
		base.With(100, 500, 32),
		base.With(200, 500, 32),
		base.With(300, 500, 32),
		// Length sweep at 200 m/s / 256 TB.
		base.With(200, 100, 32),
		base.With(200, 500, 32),
		base.With(200, 1000, 32),
		// Capacity sweep at 200 m/s / 500 m.
		base.With(200, 500, 16),
		base.With(200, 500, 32),
		base.With(200, 500, 64),
		// Corners.
		base.With(100, 500, 16),
		base.With(100, 500, 64),
		base.With(300, 500, 16),
		base.With(300, 500, 64),
	}
}

// DesignSpace returns the 13 rows of Table VI in paper order.
func DesignSpace() ([]TableVIRow, error) {
	return EvalConfigs(DesignSpaceConfigs(), PaperDataset)
}

// EvalConfigs evaluates each configuration into a Table VI row — single
// launch, bulk transfer of dataset, and the five network comparisons — in
// input order.
func EvalConfigs(configs []Config, dataset units.Bytes) ([]TableVIRow, error) {
	rows := make([]TableVIRow, len(configs))
	for i, c := range configs {
		tr, err := Transfer(c, dataset)
		if err != nil {
			return nil, err
		}
		rows[i] = TableVIRow{Launch: tr.Launch, Transfer: tr, Comparisons: CompareAll(tr)}
	}
	return rows, nil
}

// SweepRanges are the parameter ranges of Table V for custom sweeps.
var (
	SweepSpeeds  = []units.MetresPerSecond{100, 200, 300}
	SweepLengths = []units.Metres{100, 500, 1000}
	SweepSSDs    = []int{16, 32, 64}
)

// FullFactorialSweep evaluates every speed × length × cart combination of
// Table V (27 configurations) against the paper dataset.
func FullFactorialSweep() ([]TableVIRow, error) {
	return EvalConfigs(PaperResolutionGrid().Configs(DefaultConfig()), PaperDataset)
}

// FineGrid is a user-chosen speed × length × capacity design grid. Configs
// enumerates it in row-major order (speed outermost, SSD count innermost),
// so the paper's Table V factorial — and, point for point, every
// configuration of the 13-row Table VI — is the special case
// PaperResolutionGrid.
type FineGrid struct {
	Speeds  []units.MetresPerSecond
	Lengths []units.Metres
	SSDs    []int
}

// PaperResolutionGrid is the Table V resolution: 3 speeds × 3 lengths × 3
// cart sizes. Its 27 points are a superset of the 13 Table VI rows.
func PaperResolutionGrid() FineGrid {
	return FineGrid{Speeds: SweepSpeeds, Lengths: SweepLengths, SSDs: SweepSSDs}
}

// Size is the number of grid points.
func (g FineGrid) Size() int { return len(g.Speeds) * len(g.Lengths) * len(g.SSDs) }

// Configs enumerates the grid's configurations around base in row-major
// order.
func (g FineGrid) Configs(base Config) []Config {
	out := make([]Config, 0, g.Size())
	for _, v := range g.Speeds {
		for _, l := range g.Lengths {
			for _, n := range g.SSDs {
				out = append(out, base.With(v, l, n))
			}
		}
	}
	return out
}
