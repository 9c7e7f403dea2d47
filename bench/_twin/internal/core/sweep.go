package core

import (
	"context"
	"fmt"
	"math"

	"repro/bench/_twin/internal/sweep"
	"repro/bench/_twin/internal/units"
)

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

// DesignSpace returns the 13 rows of Table VI in paper order, evaluated on
// the parallel sweep engine (results are identical to a sequential loop).
func DesignSpace(opts ...sweep.Option) ([]TableVIRow, error) {
	return EvalConfigs(context.Background(), DesignSpaceConfigs(), PaperDataset, opts...)
}

// EvalConfigs evaluates each configuration into a Table VI row — single
// launch, bulk transfer of dataset, and the five network comparisons — on
// the bounded worker pool. Rows land in input order; repeated
// configurations share one launch evaluation through a per-sweep cache.
func EvalConfigs(ctx context.Context, configs []Config, dataset units.Bytes, opts ...sweep.Option) ([]TableVIRow, error) {
	cache := NewLaunchCache()
	return sweep.Map(ctx, configs, func(_ context.Context, c Config) (TableVIRow, error) {
		tr, err := cache.Transfer(c, dataset)
		if err != nil {
			return TableVIRow{}, err
		}
		return TableVIRow{
			Launch:      tr.Launch,
			Transfer:    tr,
			Comparisons: CompareAll(tr),
		}, nil
	}, opts...)
}

// SweepRanges are the parameter ranges of Table V for custom sweeps.
var (
	SweepSpeeds  = []units.MetresPerSecond{100, 200, 300}
	SweepLengths = []units.Metres{100, 500, 1000}
	SweepSSDs    = []int{16, 32, 64}
)

// FullFactorialSweep evaluates every speed × length × cart combination of
// Table V (27 configurations) against the paper dataset.
func FullFactorialSweep(opts ...sweep.Option) ([]TableVIRow, error) {
	return FineDesignSpace(context.Background(), PaperResolutionGrid(), PaperDataset, opts...)
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

// UniformFineGrid samples the Table V parameter ranges uniformly at the
// requested resolution: nSpeeds points in [100, 300] m/s, nLengths in
// [100, 1000] m, and nSSDs cart sizes in [16, 64]. An axis of resolution 1
// collapses to the paper's bold default (200 m/s, 500 m, 32 SSDs).
func UniformFineGrid(nSpeeds, nLengths, nSSDs int) (FineGrid, error) {
	if nSpeeds < 1 || nLengths < 1 || nSSDs < 1 {
		return FineGrid{}, fmt.Errorf("core: grid resolution must be ≥ 1 per axis, got %d×%d×%d",
			nSpeeds, nLengths, nSSDs)
	}
	g := FineGrid{
		Speeds:  make([]units.MetresPerSecond, nSpeeds),
		Lengths: make([]units.Metres, nLengths),
		SSDs:    make([]int, nSSDs),
	}
	for i := range g.Speeds {
		g.Speeds[i] = units.MetresPerSecond(linPoint(100, 300, i, nSpeeds, float64(DefaultMaxSpeed)))
	}
	for i := range g.Lengths {
		g.Lengths[i] = units.Metres(linPoint(100, 1000, i, nLengths, float64(DefaultLength)))
	}
	for i := range g.SSDs {
		g.SSDs[i] = int(math.Round(linPoint(16, 64, i, nSSDs, 32)))
	}
	return g, nil
}

// linPoint is the i-th of n points spanning [lo, hi] inclusive; a
// single-point axis takes the given default.
func linPoint(lo, hi float64, i, n int, single float64) float64 {
	if n == 1 {
		return single
	}
	return lo + (hi-lo)*float64(i)/float64(n-1)
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

// FineDesignSpace evaluates the grid against dataset on the parallel sweep
// engine, returning one Table VI row per point in row-major grid order.
func FineDesignSpace(ctx context.Context, g FineGrid, dataset units.Bytes, opts ...sweep.Option) ([]TableVIRow, error) {
	if g.Size() == 0 {
		return nil, fmt.Errorf("core: empty fine grid (%d speeds × %d lengths × %d cart sizes)",
			len(g.Speeds), len(g.Lengths), len(g.SSDs))
	}
	return EvalConfigs(ctx, g.Configs(DefaultConfig()), dataset, opts...)
}
