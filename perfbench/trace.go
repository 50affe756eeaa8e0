package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory during a traced run and writes them out
// at the end. Untraced runs get a disabled tracer whose spans cost one
// branch.
type tracer struct {
	on    bool
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
	stack []int // open spans of the main goroutine, for parent links
}

// spanRec is one recorded span.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root span
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// span is an open span handle.
type span struct {
	t  *tracer
	id int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span as a child of the innermost open span. Spans nest
// on the calling goroutine only; concurrent work uses record.
func (t *tracer) start(name string) span {
	if !t.on {
		return span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, StartMS: t.ms(time.Now()), EndMS: -1})
	t.stack = append(t.stack, id)
	return span{t, id}
}

// end closes the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.id].EndMS = s.t.ms(time.Now())
	if n := len(s.t.stack); n > 0 && s.t.stack[n-1] == s.id {
		s.t.stack = s.t.stack[:n-1]
	}
}

// record adds a finished span from any goroutine, without a parent.
func (t *tracer) record(name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans), Parent: -1, Name: name, StartMS: t.ms(start), EndMS: t.ms(end)})
}

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e6 }

// durations returns the durations in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndMS >= 0 {
			ds = append(ds, (s.EndMS-s.StartMS)/1e3)
		}
	}
	return ds
}

// selfTimes returns each span name's total self time in seconds: its
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndMS >= 0 {
			child[s.Parent] += s.EndMS - s.StartMS
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.EndMS >= 0 {
			out[s.Name] += (s.EndMS - s.StartMS - child[i]) / 1e3
		}
	}
	return out
}

// write saves the spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(map[string]any{"spans": t.spans, "self_s": self}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuSplit is a CPU profile split by layer: the package of each
// sample's leaf frame, with (*CertStore) methods, garbage collection and
// allocation broken out.
type cpuSplit map[string]float64

// layerOf maps a leaf function name to the layer its samples are billed
// to, or "" for layers the report does not list.
func layerOf(fn string) string {
	if strings.Contains(fn, "(*CertStore)") {
		return "epsilon.certstore"
	}
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	switch {
	case strings.HasPrefix(fn, "github.com/scpm/scpm/internal/"):
		return pkg
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "net/http."):
		return "net_http"
	case pkg == "sort" || pkg == "slices":
		return "sort"
	}
	return ""
}

// parseCPUProfile bills each sample of a pprof CPU profile to a layer:
// GC work (any frame in the mark or sweep workers or in a mutator
// assist) to "runtime.gc", other samples under runtime.mallocgc to
// "runtime.malloc", and the rest by leaf frame. The profile is decoded
// by the toolchain's own pprof (`go tool pprof -traces`), which prints
// each sample's stack leaf first.
func parseCPUProfile(data []byte, dir string, into cpuSplit) error {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", f.Name())
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return billTraces(out, into)
}

// billTraces reads the output of `go tool pprof -traces`: after a
// header, blocks separated by "-----" lines, each holding the sample's
// labels ("key:  value"), then its value and leaf function on one line
// ("      10ms   pkg.fn"), then one caller per line, indented past the
// value column. Inlined frames carry an " (inline)" suffix.
func billTraces(out []byte, into cpuSplit) error {
	const indent = "             " // the 10-column value and 3 spaces
	var (
		started bool
		secs    float64
		frames  []string
	)
	flush := func() {
		if len(frames) == 0 {
			return
		}
		var gc, malloc bool
		for _, fn := range frames {
			switch fn {
			case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
				gc = true
			case "runtime.mallocgc":
				malloc = true
			}
		}
		switch {
		case gc:
			into["runtime.gc"] += secs
		case malloc:
			into["runtime.malloc"] += secs
		default:
			if l := layerOf(frames[0]); l != "" {
				into[l] += secs
			}
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSuffix(sc.Text(), " (inline)")
		switch {
		case strings.HasPrefix(line, "-----"):
			flush()
			started = true
		case !started:
		case strings.HasPrefix(line, indent):
			if len(frames) > 0 {
				frames = append(frames, strings.TrimSpace(line))
			}
		default:
			value, fn, ok := strings.Cut(strings.TrimSpace(line), "   ")
			if !ok || strings.HasSuffix(value, ":") {
				continue // a sample label
			}
			d, err := time.ParseDuration(strings.Replace(value, "hrs", "h", 1))
			if err != nil {
				return fmt.Errorf("pprof -traces: bad sample value %q", value)
			}
			secs = d.Seconds()
			frames = append(frames, strings.TrimSpace(fn))
		}
	}
	flush()
	return sc.Err()
}

// setCPU records the per-layer CPU self times of a split.
func setCPU(b *bench, c cpuSplit) {
	for _, l := range []string{"core", "sort", "epsilon", "epsilon.certstore", "quasiclique", "bitset", "nullmodel", "index", "server", "encoding_json", "net_http"} {
		b.set(l+".cpu_self_s", c[l], "s")
	}
	b.set("runtime.gc_cpu_s", c["runtime.gc"], "s")
	b.set("runtime.malloc_cpu_s", c["runtime.malloc"], "s")
	total := 0.0
	for _, v := range c {
		total += v
	}
	fmt.Fprintf(b.out, "cpu profile: %.2fs billed to listed layers\n", total)
}

// promSamples holds the series of a Prometheus text exposition, keyed
// by name plus label set.
type promSamples map[string]float64

// parseProm reads a Prometheus text exposition.
func parseProm(r io.Reader) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series whose key starts with prefix and contains all
// of the given substrings.
func (p promSamples) sum(prefix string, contains ...string) float64 {
	t := 0.0
next:
	for k, v := range p {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		for _, c := range contains {
			if !strings.Contains(k, c) {
				continue next
			}
		}
		t += v
	}
	return t
}

// delta returns after − before per series.
func promDelta(before, after promSamples) promSamples {
	out := promSamples{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
