package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	verdictSame       = "same"       // within the bound either way
	verdictBetter     = "better"     // improved by more than the bound
	verdictWorse      = "worse"      // worsened by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread exceeds the bound
)

// minRunsForSpread is how many runs a side needs before its spread is judged;
// with fewer, the medians are compared and the spread is reported as unknown.
const minRunsForSpread = 4

// judge compares the runs of one metric on one workload. a is the parent, b
// the change. A metric whose run-to-run spread is wider than its bound is
// unresolved, not unchanged, unless every run of one side beats every run of
// the other.
func judge(d metricDef, a, b []float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / math.Abs(ma)
	worsening := change
	if d.Better == higher {
		worsening = -change
	}
	verdict = verdictSame
	switch {
	case worsening > d.Bound:
		verdict = verdictWorse
	case worsening < -d.Bound:
		verdict = verdictBetter
	}
	noisy := func(xs []float64) bool { return len(xs) >= minRunsForSpread && spreadShare(xs) > d.Bound }
	if !noisy(a) && !noisy(b) {
		return verdict, change
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	bAbove := sb[0] > sa[len(sa)-1] // every run of b reads higher than every run of a
	bBelow := sb[len(sb)-1] < sa[0]
	separated := bAbove || bBelow
	if separated && verdict != verdictSame {
		return verdict, change
	}
	return verdictUnresolved, change
}

// byWorkload groups the end-to-end runs of a results file: workload → metric
// → one value per run, plus the highest failed share any run saw.
func byWorkload(f resultsFile) (values map[string]map[string][]float64, failedShare map[string]float64) {
	values = map[string]map[string][]float64{}
	failedShare = map[string]float64{}
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
		if r.Result.Attempted > 0 {
			failedShare[r.Workload] = math.Max(failedShare[r.Workload], float64(r.Result.Failed)/float64(r.Result.Attempted))
		}
	}
	return values, failedShare
}

// traced returns the per-layer values of a results file: workload → metric.
func traced(f resultsFile) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, r := range f.Runs {
		if r.Trace == 0 {
			continue
		}
		out[r.Workload] = map[string]float64{}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = m.Value
		}
	}
	return out
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareMain applies every end-to-end metric's bound between two results
// files, parent first. It exits 1 on a worsening or a higher failed share.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare <parent.json> <change.json>")
		return 2
	}
	a, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.GoMaxProcs != b.GoMaxProcs {
		fmt.Fprintf(stderr, "benchmark: settings differ (seed %d/%d, seconds %g/%g, gomaxprocs %d/%d): not comparable\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.GoMaxProcs, b.GoMaxProcs)
		return 2
	}
	if regressed := compareFiles(a, b, stdout); regressed {
		return 1
	}
	return 0
}

// compareFiles prints one row per workload and metric and reports whether
// anything regressed.
func compareFiles(a, b resultsFile, w io.Writer) (regressed bool) {
	va, fa := byWorkload(a)
	vb, fb := byWorkload(b)
	for _, wl := range workloads() {
		if va[wl.name] == nil || vb[wl.name] == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, d := range endToEnd {
			xa, xb := va[wl.name][d.Name], vb[wl.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict, change := judge(d, xa, xb)
			regressed = regressed || verdict == verdictWorse
			fmt.Fprintf(w, "  %-18s %12.6g -> %-12.6g %-5s %+7.2f%%  bound %g  spread %s/%s  runs %d/%d  %s\n",
				d.Name, median(xa), median(xb), d.Unit, 100*change, d.Bound,
				spreadText(xa), spreadText(xb), len(xa), len(xb), verdict)
		}
		if fb[wl.name] > fa[wl.name] {
			regressed = true
			fmt.Fprintf(w, "  %-18s %12.6g -> %-12.6g       more ops fail: worse\n", "failed_share", fa[wl.name], fb[wl.name])
		}
	}
	// Counts of the traced run repeat exactly for a seed on one build; between
	// builds a difference is information about the search, not a verdict.
	ta, tb := traced(a), traced(b)
	for _, wl := range workloads() {
		for _, d := range perLayer {
			if d.Unit != "count" || ta[wl.name] == nil || tb[wl.name] == nil {
				continue
			}
			if x, y := ta[wl.name][d.Name], tb[wl.name][d.Name]; x != y {
				fmt.Fprintf(w, "%s: count %s changed: %g -> %g\n", wl.name, d.Name, x, y)
			}
		}
	}
	return regressed
}

func spreadText(xs []float64) string {
	if len(xs) < minRunsForSpread {
		return "?"
	}
	return fmt.Sprintf("%.1f%%", 100*spreadShare(xs))
}
