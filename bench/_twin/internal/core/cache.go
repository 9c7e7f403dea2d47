package core

import (
	"repro/bench/_twin/internal/cart"
	"repro/bench/_twin/internal/physics"
	"repro/bench/_twin/internal/sweep"
	"repro/bench/_twin/internal/units"
)

// launchKey is the value identity of a Config for memoization: every field
// that Launch reads, with the cart pointer replaced by its value-type build
// configuration, so two Configs describing the same physical deployment
// share a key even when their *cart.Cart instances differ.
type launchKey struct {
	HasCart      bool
	Cart         cart.Config
	Length       units.Metres
	MaxSpeed     units.MetresPerSecond
	Acceleration units.MetresPerSecond2
	LIM          physics.LIM
	DockTime     units.Seconds
	UndockTime   units.Seconds
	TimeModel    physics.TimeModel
}

func keyOf(c Config) launchKey {
	k := launchKey{
		Length:       c.Length,
		MaxSpeed:     c.MaxSpeed,
		Acceleration: c.Acceleration,
		LIM:          c.LIM,
		DockTime:     c.DockTime,
		UndockTime:   c.UndockTime,
		TimeModel:    c.TimeModel,
	}
	if c.Cart != nil {
		k.HasCart = true
		k.Cart = c.Cart.Config
	}
	return k
}

// LaunchCache memoizes Launch evaluations across a sweep, keyed by the
// configuration's value identity. Fine design grids and the Figure 6 track
// sweeps evaluate the same Config at many points; the cache makes each
// distinct physical configuration cost one Launch. It is safe for
// concurrent use by sweep workers, and a nil *LaunchCache degrades to
// uncached evaluation.
type LaunchCache struct {
	cache sweep.Cache[launchKey, LaunchMetrics]
}

// NewLaunchCache returns an empty cache.
func NewLaunchCache() *LaunchCache { return &LaunchCache{} }

// Launch is a memoized core.Launch.
func (lc *LaunchCache) Launch(c Config) (LaunchMetrics, error) {
	if lc == nil {
		return Launch(c)
	}
	return lc.cache.Do(keyOf(c), func() (LaunchMetrics, error) {
		return Launch(c)
	})
}

// Transfer is a memoized-launch core.Transfer.
func (lc *LaunchCache) Transfer(c Config, dataset units.Bytes) (BulkTransfer, error) {
	l, err := lc.Launch(c)
	if err != nil {
		return BulkTransfer{}, err
	}
	return transferFromLaunch(l, dataset)
}

// Len is the number of distinct configurations evaluated.
func (lc *LaunchCache) Len() int {
	if lc == nil {
		return 0
	}
	return lc.cache.Len()
}

// Stats reports cache hits (launches avoided) and misses (launches run).
func (lc *LaunchCache) Stats() (hits, misses int64) {
	if lc == nil {
		return 0, 0
	}
	return lc.cache.Stats()
}
