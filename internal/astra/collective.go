package astra

import (
	"errors"
	"fmt"

	"repro/internal/units"
)

// Collective communication models for the gradient-synchronisation phase of
// a training iteration. ASTRA-sim models these in detail; astra-lite uses
// the standard bandwidth-optimal cost formulas, which is all the paper's
// iteration-time observable needs.

// Cluster describes the training cluster's internal interconnect (the
// intra-rack fabric of the ML supercomputer at the DHL endpoint, §III-C).
type Cluster struct {
	// Nodes participating in data-parallel training.
	Nodes int
	// LinkBandwidth is the per-node interconnect bandwidth.
	LinkBandwidth units.BytesPerSecond
}

// DefaultCluster is a 16-node NVLink-class cluster (900 GB/s per node),
// matching the DGX-class supercomputers the paper cites (§II-D.3).
func DefaultCluster() Cluster {
	return Cluster{Nodes: 16, LinkBandwidth: 900 * units.GBps}
}

// Validate checks the cluster is usable.
func (c Cluster) Validate() error {
	if c.Nodes < 1 {
		return errors.New("astra: cluster needs ≥1 node")
	}
	if c.LinkBandwidth <= 0 {
		return fmt.Errorf("astra: node link bandwidth must be positive, got %v", c.LinkBandwidth)
	}
	return nil
}

// AllReduce is the ring-allreduce completion time for payload b:
// 2(N−1)/N × b / link. Single-node clusters need no communication.
func (c Cluster) AllReduce(b units.Bytes) units.Seconds {
	if err := c.Validate(); err != nil || b <= 0 {
		return 0
	}
	if c.Nodes == 1 {
		return 0
	}
	n := float64(c.Nodes)
	return units.Seconds(2 * (n - 1) / n * float64(b) / float64(c.LinkBandwidth))
}
