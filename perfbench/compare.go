package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads the result lines saved under dir (or its results/
// subdirectory) into workload → metric → values.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	more, _ := filepath.Glob(filepath.Join(dir, "results", "*.json"))
	files = append(files, more...)
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		base := filepath.Base(f)
		i := strings.Index(base, ".trace")
		if i < 0 {
			continue
		}
		key := base[:i] + base[i:i+7] // workload.traceN
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		var last string
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			if t := strings.TrimSpace(sc.Text()); t != "" {
				last = t
			}
		}
		fh.Close()
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if out[key] == nil {
			out[key] = map[string][]float64{}
		}
		for m, v := range res.Metrics {
			out[key][m] = append(out[key][m], v.Value)
		}
	}
	return out, nil
}

// verdict compares two samples of one metric. better is "lower" or
// "higher"; bound is the metric's regression bound (0 for per-layer
// metrics). "better" needs the quartile ranges to separate. For a
// metric with a bound, "worse" means the median got worse by more than
// the bound, as the gate rejects it, and a smaller move is "same" when
// both spreads are inside the bound; a per-layer metric is "worse" when
// the quartile ranges separate. Anything else is "unresolved".
func verdict(base, next []float64, better string, bound float64) string {
	bm, nm := median(base), median(next)
	bq1, bq3 := quantile(base, 0.25), quantile(base, 0.75)
	nq1, nq3 := quantile(next, 0.25), quantile(next, 0.75)
	if better == "higher" {
		bq1, bq3, nq1, nq3 = -bq3, -bq1, -nq3, -nq1
		bm, nm = -bm, -nm
	}
	switch {
	case nq3 < bq1:
		return "better"
	case bound == 0 && nq1 > bq3:
		return "worse"
	case bound == 0 || bm == 0 || nm == 0:
		return "unresolved"
	case (nm-bm)/abs(bm) > bound:
		return "worse"
	case (bq3-bq1)/abs(bm) <= bound && (nq3-nq1)/abs(nm) <= bound:
		return "same"
	}
	return "unresolved"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareDirs prints every workload × metric of two result sets with
// median, quartiles and verdict.
func compareDirs(baseDir, newDir string, w io.Writer) error {
	base, err := loadResults(baseDir)
	if err != nil {
		return err
	}
	next, err := loadResults(newDir)
	if err != nil {
		return err
	}
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		specs[m.Name] = m
	}
	var keys []string
	for k := range base {
		if next[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-24s %-36s %5s %12s %12s %12s   %5s %12s %12s %12s  %s\n",
		"workload", "metric", "n", "base.q1", "base.med", "base.q3", "n", "new.q1", "new.med", "new.q3", "verdict")
	for _, k := range keys {
		var ms []string
		for m := range base[k] {
			if next[k][m] != nil {
				ms = append(ms, m)
			}
		}
		sort.Strings(ms)
		for _, m := range ms {
			b, n := base[k][m], next[k][m]
			spec, ok := specs[m]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-24s %-36s %5d %12.5g %12.5g %12.5g   %5d %12.5g %12.5g %12.5g  %s\n",
				k, m+" ["+spec.Unit+"]", len(b), quantile(b, 0.25), median(b), quantile(b, 0.75),
				len(n), quantile(n, 0.25), median(n), quantile(n, 0.75), verdict(b, n, spec.Better, spec.Bound))
		}
	}
	return nil
}
