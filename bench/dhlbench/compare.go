package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
)

// compareCmd compares two sets of end-to-end result files, OLD (the
// parent commit) and NEW (the change), each a directory of result files
// or a single file. For every workload and end-to-end metric it prints
// each side's median and quartiles, the runs NEW wins when paired with
// OLD by seed, and a verdict. It exits 1 when a metric regressed past its
// bound, a run was incorrect, or a workload's runs differ in -seconds.
func compareCmd(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		log.Print("usage: dhlbench compare OLD NEW")
		return 2
	}
	old, err := loadResults(args[0])
	if err != nil {
		log.Print(err)
		return 2
	}
	cur, err := loadResults(args[1])
	if err != nil {
		log.Print(err)
		return 2
	}
	if compareSets(stdout, old, cur) {
		return 1
	}
	return 0
}

// loadResults reads the untraced result files at path.
func loadResults(path string) ([]result, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil || r.Workload == "" || r.Trace {
			continue // a Chrome trace, a traced pass, or not a result file
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result files", path)
	}
	return out, nil
}

// Verdicts, following the repository's benchmark rules: a change is
// improved only when it wins nine tenths of the pairs by more than the
// parent's own spread (or every run beats every parent run), regressed
// when its median is worse than the parent's by more than the bound, and
// unresolved when the run-to-run spread is wider than the bound.
const (
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
)

// comparison is one (workload, metric) row.
type comparison struct {
	old, cur       []float64
	pairs          [][2]float64 // (old, new) runs of the same seed
	wins           int
	change         float64 // relative worsening of the new median; negative is better
	verdict        string
	oldMed, curMed float64
}

// judge compares the two samples of one metric.
func judge(spec metricSpec, c *comparison) {
	better := func(a, b float64) bool { // a better than b
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.oldMed = quantileOf(append([]float64(nil), c.old...), 0.5)
	c.curMed = quantileOf(append([]float64(nil), c.cur...), 0.5)
	c.change = (c.curMed - c.oldMed) / c.oldMed
	if spec.Better == "higher" {
		c.change = -c.change
	}
	for _, p := range c.pairs {
		if better(p[1], p[0]) {
			c.wins++
		}
	}
	allBetter := true
	for _, n := range c.cur {
		for _, o := range c.old {
			allBetter = allBetter && better(n, o)
		}
	}
	oldIQR := iqr(c.old)
	spread := func(xs []float64, med float64) float64 { return iqr(xs) / med }
	switch {
	case c.change > spec.Bound:
		c.verdict = verdictRegressed
	case allBetter:
		c.verdict = verdictImproved
	case spread(c.old, c.oldMed) > spec.Bound || spread(c.cur, c.curMed) > spec.Bound:
		c.verdict = verdictUnresolved
	case len(c.pairs) > 0 && 10*c.wins >= 9*len(c.pairs) && -c.change*c.oldMed > oldIQR:
		c.verdict = verdictImproved
	default:
		c.verdict = verdictUnchanged
	}
}

func iqr(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	return quantileOf(s, 0.75) - quantileOf(s, 0.25)
}

// compareSets prints the comparison table and reports whether any metric
// regressed or any run was incorrect.
func compareSets(w io.Writer, old, cur []result) bool {
	bad := false
	for _, set := range [][]result{old, cur} {
		for _, r := range set {
			if !r.Correct {
				fmt.Fprintf(w, "incorrect run: %s seed %d (%d of %d failed)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				bad = true
			}
		}
	}
	fmt.Fprintf(w, "%-15s %-18s %-40s %-40s %8s %6s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "wins", "verdict")
	for _, wl := range workloadsAt(fullSize) {
		olds, curs := runsOf(old, wl.name), runsOf(cur, wl.name)
		if len(olds) == 0 || len(curs) == 0 {
			continue
		}
		if s, ok := sameSeconds(append(olds, curs...)); !ok {
			fmt.Fprintf(w, "%-15s not compared: runs measured for %g s and %g s; both sides need the same -seconds\n", wl.name, olds[0].Seconds, s)
			bad = true
			continue
		}
		for _, spec := range endToEnd {
			c := comparison{old: valuesOf(olds, spec.Name), cur: valuesOf(curs, spec.Name), pairs: pairBySeed(olds, curs, spec.Name)}
			if len(c.old) == 0 || len(c.cur) == 0 {
				continue
			}
			judge(spec, &c)
			bad = bad || c.verdict == verdictRegressed
			fmt.Fprintf(w, "%-15s %-18s %-40s %-40s %+7.1f%% %6s  %s\n", wl.name, spec.Name,
				medianRange(c.old), medianRange(c.cur), 100*c.change,
				fmt.Sprintf("%d/%d", c.wins, len(c.pairs)), c.verdict)
		}
	}
	return bad
}

// sameSeconds reports whether every run measured for as long as the
// first; when not, it returns the first length that differs. Window
// lengths and serve's heap depend on the run length.
func sameSeconds(runs []result) (float64, bool) {
	for _, r := range runs {
		//dhllint:allow floateq -- run lengths are -seconds flag values copied into the result files, never computed
		if r.Seconds != runs[0].Seconds {
			return r.Seconds, false
		}
	}
	return runs[0].Seconds, true
}

func runsOf(set []result, workload string) []result {
	var out []result
	for _, r := range set {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// pairBySeed pairs each old run with the first unpaired new run of the
// same seed.
func pairBySeed(olds, curs []result, metric string) [][2]float64 {
	var pairs [][2]float64
	used := make([]bool, len(curs))
	for _, o := range olds {
		ov, ok := o.Metrics[metric]
		if !ok {
			continue
		}
		for j, n := range curs {
			if nv, ok := n.Metrics[metric]; ok && !used[j] && n.Seed == o.Seed {
				used[j] = true
				pairs = append(pairs, [2]float64{ov.Value, nv.Value})
				break
			}
		}
	}
	return pairs
}

// medianRange renders a sample as "median [q1, q3] n=N".
func medianRange(xs []float64) string {
	s := append([]float64(nil), xs...)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", quantileOf(s, 0.5), quantileOf(s, 0.25), quantileOf(s, 0.75), len(s))
}
