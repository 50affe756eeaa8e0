package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
)

// classWeights is the query mix in percent, in the order of classes.
var classWeights = []int{25, 15, 12, 8, 10, 10, 10, 10}

// epsCacheEntries is scpm-serve's default ε LRU capacity; the pool of
// epsilon_computed pairs is about four times larger, so both hits and
// misses happen.
const epsCacheEntries = 1024

// queryPools holds the values the query classes draw from.
type queryPools struct {
	setIDs      []string   // in a seed-permuted order; Zipf ranks index it
	attrs       []string   // attributes of mined sets
	patVertices []string   // vertices that occur in patterns
	vertices    []string   // every vertex
	minedSets   [][]string // attribute names of mined sets
	infrequent  [][]string // attribute pairs below σmin, never mined
}

// newPools builds the query pools of an index over graph g.
func newPools(x *index.Index, g *graph.Graph, p core.Params, seed int64) *queryPools {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	q := &queryPools{}
	sets := x.Sets()
	seenAttr := map[string]bool{}
	for i, s := range sets {
		q.setIDs = append(q.setIDs, x.SetID(i))
		for _, n := range s.Names {
			if !seenAttr[n] {
				seenAttr[n] = true
				q.attrs = append(q.attrs, n)
			}
		}
	}
	sort.Strings(q.attrs)
	rng.Shuffle(len(q.setIDs), func(i, j int) { q.setIDs[i], q.setIDs[j] = q.setIDs[j], q.setIDs[i] })
	for _, i := range rng.Perm(len(sets))[:min(len(sets), 4*epsCacheEntries)] {
		q.minedSets = append(q.minedSets, sets[i].Names)
	}
	seenV := map[string]bool{}
	for i := range x.Patterns() {
		for _, v := range x.PatternVertexNames(i) {
			if !seenV[v] {
				seenV[v] = true
				q.patVertices = append(q.patVertices, v)
			}
		}
	}
	sort.Strings(q.patVertices)
	for v := 0; v < g.NumVertices(); v++ {
		q.vertices = append(q.vertices, g.VertexName(int32(v)))
	}
	var pairs [][]string
	for a := int32(0); a < int32(g.NumAttributes()); a++ {
		for c := a + 1; c < int32(g.NumAttributes()); c++ {
			joint := g.AttrMembers(a).IntersectCount(g.AttrMembers(c))
			names := []string{g.AttrName(a), g.AttrName(c)}
			if joint >= 1 && joint < p.SigmaMin && x.Exact(names) < 0 {
				pairs = append(pairs, names)
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return strings.Join(pairs[i], ",") < strings.Join(pairs[j], ",") })
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	q.infrequent = pairs[:min(len(pairs), 4*epsCacheEntries)]
	if len(q.patVertices) == 0 {
		q.patVertices = q.vertices
	}
	return q
}

// request is one scheduled query.
type request struct {
	class int
	path  string
	due   time.Duration // offset from the phase start
}

// draw returns the path of one query of class c.
func (q *queryPools) draw(rng *rand.Rand, zipf *rand.Zipf, c int) string {
	attrs := func(names []string) string {
		names = append([]string(nil), names...)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		return url.QueryEscape(strings.Join(names, ","))
	}
	switch classes[c] {
	case "set_by_id":
		return "/sets/" + q.setIDs[zipf.Uint64()]
	case "sets_contains":
		return "/sets?contains=" + url.QueryEscape(q.attrs[rng.Intn(len(q.attrs))]) + "&k=10"
	case "sets_top":
		return "/sets?k=10"
	case "sets_ranked":
		return "/sets?rank=" + []string{"support", "epsilon", "delta"}[rng.Intn(3)] + "&k=10"
	case "patterns_by_vertex":
		return "/patterns?vertex=" + url.QueryEscape(q.patVertices[rng.Intn(len(q.patVertices))])
	case "vertex":
		return "/vertices/" + url.PathEscape(q.vertices[rng.Intn(len(q.vertices))])
	case "epsilon_indexed":
		return "/epsilon?attrs=" + attrs(q.minedSets[rng.Intn(len(q.minedSets))])
	default: // epsilon_computed
		return "/epsilon?attrs=" + attrs(q.infrequent[rng.Intn(len(q.infrequent))])
	}
}

// schedule draws an open-loop schedule of the query mix at rate
// requests per second for the given duration: exactly rate×d requests
// at sorted uniform times (a Poisson process conditioned on its count),
// and a seeded shuffle of exactly the mix's class shares over them (the
// ranked class cycles its three rankings). Two seeds thus differ in
// timing, order and parameters, but not in how much of each kind of
// work they ask for.
func (q *queryPools) schedule(seed int64, rate float64, d time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(q.setIDs)-1))
	out := make([]request, int(rate*d.Seconds()))
	for i := range out {
		out[i].due = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	kinds := make([]int, 0, len(out))
	for c, w := range classWeights {
		n := (len(out)*w + 50) / 100
		for i := 0; i < n && len(kinds) < len(out); i++ {
			kinds = append(kinds, c)
		}
	}
	for len(kinds) < len(out) {
		kinds = append(kinds, 0)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ranked := 0
	for i := range out {
		out[i].class = kinds[i]
		if classes[kinds[i]] == "sets_ranked" {
			out[i].path = "/sets?rank=" + []string{"support", "epsilon", "delta"}[ranked%3] + "&k=10"
			ranked++
			continue
		}
		out[i].path = q.draw(rng, zipf, kinds[i])
	}
	return out
}

// outcome is the measurement of one sent request.
type outcome struct {
	req        request
	late       time.Duration // dispatch time − due time
	start, end time.Time
	latency    time.Duration // end − due time
	status     int
	body       []byte // kept for the sampled body checks only
	err        error
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// openLoop sends the schedule to base from one dispatcher over at most
// conns connections: each request is handed to the connection pool at
// its due time whether or not earlier ones finished, and its latency is
// timed from that due time. keep selects the requests whose bodies are
// retained.
func openLoop(base string, sched []request, conns int, keep func(i int) bool) []outcome {
	out := make([]outcome, len(sched))
	ch := make(chan int, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			}
			defer client.CloseIdleConnections()
			for i := range ch {
				o := &out[i]
				o.start = time.Now()
				resp, err := client.Get(base + sched[i].path)
				if err == nil {
					var body []byte
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					o.status = resp.StatusCode
					if keep(i) {
						o.body = body
					}
				}
				o.end = time.Now()
				o.err = err
				o.latency = o.end.Sub(t0.Add(sched[i].due))
			}
		}()
	}
	for i, r := range sched {
		due := t0.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].req = r
		out[i].late = time.Since(due)
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	n        int
	sent     int // requests sent, a late first attempt's included
	failed   int
	p50, p99 float64 // ms from due time; failures count as +Inf
	lateP99  float64 // ms
}

func summarize(out []outcome) phaseStats {
	var lat, late []float64
	st := phaseStats{n: len(out)}
	for _, o := range out {
		late = append(late, ms(o.late))
		if !o.ok() {
			st.failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(o.latency))
	}
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.lateP99 = quantile(late, 0.99)
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// maxLateMS is how late the generator may run (p99) before a phase is
// invalid: past it the generator, not the server, shaped the latencies.
// On two vCPUs the server's requests hold both cores for tens of
// milliseconds at a time, so 10–25 ms of lateness at p99 are normal;
// half the latency limit is not.
const maxLateMS = limitP99MS / 2

// runPhase runs one open-loop phase, retrying once if the generator ran
// late; a second late phase fails the run.
func runPhase(b *bench, label, base string, q *queryPools, seed int64, rate float64, d time.Duration, conns int, keep func(i int) bool) ([]outcome, phaseStats, error) {
	sent := 0
	for attempt := 0; ; attempt++ {
		sched := q.schedule(seed+int64(attempt)*7919, rate, d)
		runtime.GC() // so the generator's own collector does not make it late
		start := time.Now()
		out := openLoop(base, sched, conns, keep)
		b.tr.record("loadgen."+label, start, time.Now())
		st := summarize(out)
		sent += len(out)
		st.sent = sent
		fmt.Fprintf(b.out, "%s: %d requests at %.0f/s over %d conns: p50=%.2fms p99=%.2fms failed=%d late_p99=%.2fms\n",
			label, st.n, rate, conns, st.p50, st.p99, st.failed, st.lateP99)
		if st.lateP99 <= maxLateMS {
			return out, st, nil
		}
		if attempt == 1 {
			return nil, st, fmt.Errorf("%s: load generator ran late (p99 %.1f ms > %.0f ms); run invalid", label, st.lateP99, maxLateMS)
		}
	}
}

// checkStatuses counts every request of a phase: each must be a 200.
func checkStatuses(b *bench, label string, out []outcome) {
	for _, o := range out {
		b.check(o.ok(), "%s %s: status %d err %v", label, o.req.path, o.status, o.err)
	}
}

var sourceFields = [][]byte{[]byte(`"source": "cache"`), []byte(`"source": "computed"`)}

func normalize(body []byte) []byte {
	for _, s := range sourceFields {
		body = bytes.ReplaceAll(body, s, []byte(`"source": "-"`))
	}
	return body
}
