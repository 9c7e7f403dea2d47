package telemetry

// Quantile estimates the q-quantile (q in [0,1]) of a snapshot histogram
// by linear interpolation inside the containing bucket, the same estimator
// Prometheus's histogram_quantile uses: observations are assumed uniform
// within a bucket, the first bucket spans [0, bound], and ranks past the
// last finite bound clamp to that bound (the +Inf bucket has no width to
// interpolate into). Pure arithmetic over the snapshot — callers may use
// it in deterministic report paths.
func Quantile(h HistogramPoint, q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	lowerBound := 0.0
	var lowerCum uint64
	for _, b := range h.Buckets {
		if rank <= float64(b.Count) {
			if b.Count == lowerCum {
				return b.UpperBound
			}
			frac := (rank - float64(lowerCum)) / float64(b.Count-lowerCum)
			return lowerBound + (b.UpperBound-lowerBound)*frac
		}
		lowerBound, lowerCum = b.UpperBound, b.Count
	}
	// Rank falls in the +Inf bucket: clamp to the largest finite bound.
	return h.Buckets[len(h.Buckets)-1].UpperBound
}
