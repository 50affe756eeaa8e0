package main

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/snapshot"
)

// probeCalls is how many calls each in-process probe times.
const probeCalls = 30

// probe times the benchmark's own calls into the serving layers on the
// workload's dataset, in-process: index build, snapshot write and mmap
// open, the first query after open, and per query class the index
// lookup, the handler and its body size, plus the ε estimator on the
// epsilon_computed pairs. Mining workloads use these as the control for
// the serving workloads.
func probe(ctx context.Context, b *bench, d *dataset, res *core.Result, p core.Params) error {
	sp := b.tr.start("probe.index.Build")
	t0 := time.Now()
	built := index.Build(res, d.g)
	b.set("index.build_s", time.Since(t0).Seconds(), "s")
	sp.end()

	path := filepath.Join(b.workDir, "probe.scpmidx")
	sp = b.tr.start("probe.snapshot.Write")
	t0 = time.Now()
	err := snapshot.Write(path, d.g, built)
	b.set("snapshot.write_s", time.Since(t0).Seconds(), "s")
	sp.end()
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.set("snapshot.bytes", float64(fi.Size()), "bytes")
	sp = b.tr.start("probe.snapshot.Open")
	t0 = time.Now()
	boot, err := snapshot.Open(path, snapshot.Options{Mode: snapshot.ModeMmap})
	b.set("snapshot.open_ms", ms(time.Since(t0)), "ms")
	sp.end()
	if err != nil {
		return err
	}
	defer boot.Close()
	x, g := boot.Index, boot.Graph
	reg := obs.NewRegistry()
	h, err := newHandler(x, g, p, reg)
	if err != nil {
		return err
	}
	t0 = time.Now()
	first := httptest.NewRecorder()
	h.ServeHTTP(first, httptest.NewRequest(http.MethodGet, "/sets?k=10", nil))
	b.set("index.first_query_ms", ms(time.Since(t0)), "ms")
	b.check(first.Code == http.StatusOK, "probe: first /sets?k=10 after mmap open: status %d", first.Code)

	pools := newPools(x, g, p, b.seed)
	rng := rand.New(rand.NewSource(b.seed ^ 0x9e0be))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(max(1, len(pools.setIDs)-1)))
	for c, name := range classes {
		if !pools.canDraw(c) {
			continue
		}
		var hs, bs, ls []float64
		for i := 0; i < probeCalls; i++ {
			path := pools.draw(rng, zipf, c)
			rec := httptest.NewRecorder()
			t := time.Now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			hs = append(hs, ms(time.Since(t)))
			bs = append(bs, float64(rec.Body.Len()))
			b.check(rec.Code == http.StatusOK, "probe %s: status %d", path, rec.Code)
			ls = append(ls, lookup(x, pools, rng, zipf, c))
		}
		b.set("server.handler_ms."+name, median(hs), "ms")
		b.set("server.bytes."+name, median(bs), "bytes")
		b.set("index.lookup_ms."+name, median(ls), "ms")
	}

	// The ε estimator alone on the epsilon_computed pairs.
	est := p.NewEstimator()
	var es []float64
	for _, pair := range pools.infrequent[:min(len(pools.infrequent), probeCalls)] {
		var attrs []int32
		var members *bitset.Set
		for _, n := range pair {
			a, _ := g.AttrID(n)
			attrs = append(attrs, a)
			if members == nil {
				members = g.AttrMembers(a).Clone()
			} else {
				members.IntersectWith(g.AttrMembers(a))
			}
		}
		sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
		t := time.Now()
		_, err := est.Estimate(g, attrs, members, members)
		es = append(es, ms(time.Since(t)))
		b.check(err == nil, "probe: estimating ε%v: %v", pair, err)
	}
	b.set("epsilon.estimate_ms", median(es), "ms")

	// Workloads with a server process report its cache; the others the
	// probe handler's.
	if _, ok := b.metrics["server.eps_cache_hit_ratio"]; !ok {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		setServerMetrics(b, parseProm(rec.Body))
	}
	return nil
}

// canDraw reports whether class c has values to draw from.
func (q *queryPools) canDraw(c int) bool {
	switch classes[c] {
	case "set_by_id", "epsilon_indexed":
		return len(q.setIDs) > 1
	case "sets_contains":
		return len(q.attrs) > 0
	case "epsilon_computed":
		return len(q.infrequent) > 0
	}
	return true
}

// lookup times the index calls behind one query of class c, in ms.
func lookup(x *index.Index, q *queryPools, rng *rand.Rand, zipf *rand.Zipf, c int) float64 {
	t := time.Now()
	switch classes[c] {
	case "set_by_id":
		x.PatternsOfSetByIndex(x.SetIndexByID(q.setIDs[zipf.Uint64()]))
	case "sets_contains":
		x.Supersets([]string{q.attrs[rng.Intn(len(q.attrs))]})
	case "sets_top":
		listSets(x, nil, 10)
	case "sets_ranked":
		r := core.Ranking(rng.Intn(3))
		listSets(x, &r, 10)
	case "patterns_by_vertex":
		x.PatternsWithVertex(q.patVertices[rng.Intn(len(q.patVertices))])
	case "vertex":
		v := q.vertices[rng.Intn(len(q.vertices))]
		if x.HasVertex(v) {
			x.PatternsWithVertex(v)
		}
	case "epsilon_indexed":
		x.Exact(q.minedSets[rng.Intn(len(q.minedSets))])
	case "epsilon_computed":
		x.Exact(q.infrequent[rng.Intn(len(q.infrequent))])
	}
	return ms(time.Since(t))
}

// listSets does the index-side work of an unfiltered GET /sets?k=…
// (with rank=… when r is not nil) the way the server's handler does it:
// the position of every set, the threshold filter (the defaults keep
// every set), a stable sort by the ranking with ties broken by support
// then position, and the cut to the first k.
func listSets(x *index.Index, r *core.Ranking, k int) []int {
	idxs := make([]int, x.NumSets())
	for i := range idxs {
		idxs[i] = i
	}
	sets := x.Sets()
	kept := idxs[:0]
	for _, i := range idxs {
		if sets[i].Support >= 0 && sets[i].Epsilon >= 0 && sets[i].Delta >= 0 {
			kept = append(kept, i)
		}
	}
	idxs = kept
	if r != nil {
		sort.SliceStable(idxs, func(a, b int) bool {
			s, t := sets[idxs[a]], sets[idxs[b]]
			switch *r {
			case core.BySupport:
				if s.Support != t.Support {
					return s.Support > t.Support
				}
			case core.ByEpsilon:
				if s.Epsilon != t.Epsilon {
					return s.Epsilon > t.Epsilon
				}
			case core.ByDelta:
				if s.Delta != t.Delta {
					if math.IsInf(s.Delta, 1) {
						return true
					}
					if math.IsInf(t.Delta, 1) {
						return false
					}
					return s.Delta > t.Delta
				}
			}
			if s.Support != t.Support {
				return s.Support > t.Support
			}
			return idxs[a] < idxs[b]
		})
	}
	return idxs[:min(k, len(idxs))]
}
