// Package hist is the benchmark's fixed-memory latency histogram, shared by
// the harness that drives the repository's code and the one that drives
// its frozen twin, so that both record every sample the same way.
package hist

import (
	"math"
	"math/bits"
)

// Hist is a fixed-memory log-bucket histogram of non-negative integer
// samples (nanoseconds, queue depths). Values below 128 get a bucket each;
// above that every power of two is split into 64 buckets, so a quantile,
// read by interpolating within its bucket, is within 1/64 of the sample it
// stands for and usually far closer. Its size never depends on the sample
// count, so recording latencies leaves the heap the benchmark measures
// untouched.
type Hist struct {
	counts [buckets]uint64
	n      uint64
}

const (
	subBits = 6
	exact   = 1 << (subBits + 1) // values below this are exact
	buckets = (64-subBits-1)*(1<<subBits) + exact
)

// bucket maps a value to its bucket index.
func bucket(v uint64) int {
	if v < exact {
		return int(v)
	}
	shift := bits.Len64(v) - (subBits + 1)
	return shift<<subBits + int(v>>uint(shift))
}

// bucketRange is the lowest value of bucket i and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < exact {
		return float64(i), 1
	}
	shift := uint(i>>subBits - 1)
	return float64(uint64(i&(1<<subBits-1)|1<<subBits) << shift), float64(uint64(1) << shift)
}

// Record adds one sample.
func (h *Hist) Record(v uint64) {
	h.counts[bucket(v)]++
	h.n++
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// N is the number of samples recorded.
func (h *Hist) N() uint64 { return h.n }

// Quantile is the nearest-rank q-quantile: the ceil(q·n)-th smallest
// sample, placed within its bucket by its rank there. Exact buckets
// return the sample itself; an empty histogram returns 0.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(NearestRank(q, int(h.n)))
	var below uint64
	for i, c := range h.counts {
		if below+c >= rank {
			lo, width := bucketRange(i)
			if i < exact {
				return lo
			}
			return lo + width*(float64(rank-below)-0.5)/float64(c)
		}
		below += c
	}
	lo, width := bucketRange(buckets - 1)
	return lo + width
}

// NearestRank is the 1-based rank of the q-quantile among n samples.
func NearestRank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}
