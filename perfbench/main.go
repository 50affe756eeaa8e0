// Command perfbench is the scpm benchmark: four seeded workloads (batch
// mining on two datasets, query serving, live updates) run against the
// code as it stands, with every output checked. One run prints a report
// of every metric by name and unit, then, as its last line, one JSON
// object with the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). See README.md for the metric and layer tables.
//
//	perfbench -workload mine-dblp -seed 1 -seconds 20 -trace 0
//	perfbench -spec > BENCHMARK.json
//	perfbench -compare base-runs/ new-runs/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark scenario.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"mine-dblp", "dblp@0.2 exact Mine at nproc and at 1: the Eclat lattice, cert seeding and the allocator do the work, the coverage DFS almost none", runMineDBLP},
	{"mine-dense", "dense@0.2 exact and sampled Mine at nproc: quasiclique and epsilon do the work, the lattice and the allocator almost none", runMineDense},
	{"serve-dblp", "scpm-serve booted mmap from the dblp@0.2 snapshot; 8-class open-loop mix at 100 req/s (p99 limit 100 ms), direct and via a 2-shard gateway; cold boot", runServe},
	{"update-dblp", "the serve-dblp mix at 100 req/s plus a single-op POST /updates every 2.5 s: graph.Apply, Remine, index.Rebuild and write-behind compete with reads", runUpdate},
}

// metricSpec declares one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// bench is the state of one run.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	binDir  string
	workDir string
	out     io.Writer // human-readable report
	tr      *tracer
	// setupMines are the wall times net of steal, in ms, of the Mine
	// calls that build the served index, one per set-up.
	setupMines []float64
	metrics    map[string]float64
	units      map[string]string
	mu         sync.Mutex // guards the check counters
	attempts   int
	failures   int
	notes      []string // first few failure descriptions
}

// set records a metric value with its unit.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = v
	b.units[name] = unit
}

// check counts one checked operation; a false ok is a failure.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempts++
	if !ok {
		b.failures++
		if len(b.notes) < 10 {
			b.notes = append(b.notes, fmt.Sprintf(format, args...))
		}
	}
}

func main() {
	// An interrupted run stops its servers before it exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopChildren()
		os.Exit(130)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: mine-dblp, mine-dense, serve-dblp or update-dblp")
		seed    = fs.Int64("seed", 0, "workload seed: relabels the dataset and drives the query, update and sampling schedules (0 = the profile's own labelling)")
		seconds = fs.Int("seconds", defaultSeconds, "measurement budget of the run in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		binDir  = fs.String("bin", ".bench_build/bin", "directory holding scpm-serve and scpm-gateway")
		workDir = fs.String("work", ".bench_build/work", "directory for snapshots, manifests, spans and saved results")
		spec    = fs.Bool("spec", false, "print BENCHMARK.json and exit")
		compare = fs.Bool("compare", false, "compare saved results: perfbench -compare BASE_DIR NEW_DIR")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		return printSpec(stdout, stderr)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs BASE_DIR and NEW_DIR")
			return 2
		}
		if err := compareDirs(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds ≥ 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	for _, bin := range []string{"scpm-serve", "scpm-gateway"} {
		if _, err := os.Stat(filepath.Join(*binDir, bin)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s not built: %v\n", bin, err)
			return 1
		}
	}
	runDir := filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		binDir:  *binDir,
		workDir: runDir,
		out:     stdout,
		tr:      newTracer(*trace == 1),
		metrics: map[string]float64{},
		units:   map[string]string{},
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d nproc=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.Version())
	ctx := context.Background()
	err := w.run(ctx, b)
	stopChildren()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range b.notes {
		fmt.Fprintln(stderr, "perfbench: check failed:", n)
	}
	return finish(b, w.name, *trace, *workDir, stdout, stderr)
}

// finish prints the report and the result line and saves the result
// for -compare.
func finish(b *bench, name string, trace int, workDir string, stdout, stderr io.Writer) int {
	if b.attempts == 0 {
		fmt.Fprintln(stderr, "perfbench: no operation was checked")
		return 1
	}
	b.set("run.error_ratio", float64(b.failures)/float64(b.attempts), "ratio")
	fmt.Fprintln(stdout, "report:")
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-40s %16.6g %s\n", n, b.metrics[n], b.units[n])
	}
	if b.traced {
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-%d.json", name, b.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
	}
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failures == 0, b.attempts, b.failures, map[string]value{}}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok && b.traced {
			v, ok = 0, true // a layer this workload does not exercise
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", name, m.Name)
			return 1
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	saveResult(filepath.Join(workDir, "results"), name, b.seed, trace, line)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// saveResult keeps the result line for -compare; failures to save are
// not fatal to the run.
func saveResult(dir, name string, seed int64, trace int, line []byte) {
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.trace%d.seed%d.%d.json", name, trace, seed, time.Now().UnixNano()))
	os.WriteFile(path, append(line, '\n'), 0o644) //nolint:errcheck // best effort
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// printSpec writes BENCHMARK.json.
func printSpec(stdout, stderr io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
