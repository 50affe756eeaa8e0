package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/datagen"
	"github.com/scpm/scpm/internal/graph"
)

// dataset is one generated, seed-relabelled input graph with the
// profile's mining parameters.
type dataset struct {
	name string
	prof datagen.Profile
	g    *graph.Graph // relabelled by the workload seed
	orig *graph.Graph // the profile's own labelling
}

// params returns the profile's mining parameters (the ones scpm-bench
// and ROADMAP use) at the given parallelism.
func (d *dataset) params(parallelism int) core.Params {
	return core.Params{
		SigmaMin:    d.prof.SigmaMin,
		Gamma:       d.prof.Gamma,
		MinSize:     d.prof.MinSize,
		MinAttrs:    d.prof.MinAttrs,
		EpsMin:      d.prof.EpsMin,
		DeltaMin:    d.prof.DeltaMin,
		K:           5,
		Parallelism: parallelism,
	}
}

// sampled switches p to the sampled ε estimator: ±0.1 at δ=0.05 with
// sampling seed 1.
func sampled(p core.Params) core.Params {
	p.EpsilonMode = core.EpsilonSampled
	p.SampleEps = 0.1
	p.SampleDelta = 0.05
	p.Seed = 1
	return p
}

// generate builds the named profile at scale 0.2 with the profile's own
// generator seed, then relabels it with the workload seed: vertex and
// attribute ids are permuted, names are kept. The mined patterns are
// therefore the same for every seed while the orders every layer walks
// them in change. (Feeding the seed to datagen.Config.Seed instead moves
// dblp@0.2 between 55 k and 8.7 M frequent sets; see README.md.)
func generate(b *bench, name string) (*dataset, error) {
	var prof datagen.Profile
	switch name {
	case "dblp":
		prof = datagen.SynthDBLP(0.2)
	case "dense":
		prof = datagen.SynthDense(0.2)
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	sp := b.tr.start("datagen.Generate")
	orig, _, err := datagen.Generate(prof.Config)
	if err != nil {
		return nil, err
	}
	g := orig
	if b.seed != 0 {
		if g, err = relabel(orig, b.seed); err != nil {
			return nil, err
		}
	}
	sp.end()
	return &dataset{name: name, prof: prof, g: g, orig: orig}, nil
}

// relabel rebuilds g with vertex and attribute ids permuted by seed.
func relabel(g *graph.Graph, seed int64) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for _, a := range rng.Perm(g.NumAttributes()) {
		b.InternAttr(g.AttrName(int32(a)))
	}
	perm := rng.Perm(g.NumVertices())
	newID := make([]int32, g.NumVertices())
	for _, v := range perm {
		attrs := g.VertexAttrs(int32(v))
		names := make([]string, len(attrs))
		for i, a := range attrs {
			names[i] = g.AttrName(a)
		}
		id, err := b.AddVertex(g.VertexName(int32(v)), names...)
		if err != nil {
			return nil, err
		}
		newID[v] = id
	}
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, w := range g.Neighbors(u) {
			if u < w {
				if err := b.AddEdge(newID[u], newID[w]); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}

// digest is an order-sensitive hash of a result's sets and patterns
// (everything but Stats), so two results are equal exactly when their
// digests are.
func digest(res *core.Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	u := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	str := func(s string) {
		u(uint64(len(s)))
		h.Write([]byte(s))
	}
	u(uint64(len(res.Sets)))
	for _, s := range res.Sets {
		u(uint64(len(s.Names)))
		for _, n := range s.Names {
			str(n)
		}
		u(uint64(s.Support))
		u(math.Float64bits(s.Epsilon))
		u(math.Float64bits(s.ExpEps))
		u(math.Float64bits(s.Delta))
		u(uint64(s.Covered))
		if s.Estimated {
			u(1)
		} else {
			u(0)
		}
		u(math.Float64bits(s.EpsilonErr))
		u(uint64(s.SampledVertices))
	}
	u(uint64(len(res.Patterns)))
	for _, p := range res.Patterns {
		u(uint64(len(p.Names)))
		for _, n := range p.Names {
			str(n)
		}
		u(uint64(len(p.Vertices)))
		for _, v := range p.Vertices {
			u(uint64(v))
		}
		u(uint64(p.MinDeg))
		u(uint64(p.Edges))
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// mine runs core.Mine inside a span.
func mine(ctx context.Context, b *bench, g *graph.Graph, p core.Params, span string) (*core.Result, error) {
	sp := b.tr.start(span)
	res, err := core.Mine(ctx, g, p, nil)
	sp.end()
	return res, err
}

// A run sets up at least setupRepeats times and until setupBudget of
// set-up wall time has passed; setup_s is the median.
const (
	setupRepeats = 3
	setupBudget  = 2 * time.Second
)

// repeatSetup runs one workload's set-up repeatedly and returns
// the last set-up's state. setup_s is the median CPU time of the
// benchmark process over one set-up, which (unlike its wall time, kept
// as e2e.setup_wall_s) does not grow while the VM steals CPU time.
// Before each set-up the previous one's state is dropped and collected,
// so no set-up pays for another's garbage.
func repeatSetup[T any](b *bench, fn func() (T, error)) (T, error) {
	var (
		last        T
		cpus, walls []float64
	)
	start := time.Now()
	for i := 0; i < setupRepeats || time.Since(start) < setupBudget; i++ {
		var zero T
		last = zero
		runtime.GC()
		sp := b.tr.start("setup")
		t0, c0 := time.Now(), selfCPU()
		v, err := fn()
		cpus = append(cpus, selfCPU()-c0)
		walls = append(walls, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return last, err
		}
		last = v
	}
	b.set("setup_s", median(cpus), "s")
	b.set("e2e.setup_wall_s", median(walls), "s")
	return last, nil
}

// shape prints the dataset shape, so a seed that lands in a different
// regime shows in the report.
func shape(b *bench, d *dataset, res *core.Result) {
	fmt.Fprintf(b.out, "dataset %s: |V|=%d |E|=%d |A|=%d sets=%d patterns=%d\n",
		d.name, d.g.NumVertices(), d.g.NumEdges(), d.g.NumAttributes(), len(res.Sets), len(res.Patterns))
	b.set("dataset.vertices", float64(d.g.NumVertices()), "count")
	b.set("dataset.edges", float64(d.g.NumEdges()), "count")
	b.set("dataset.attributes", float64(d.g.NumAttributes()), "count")
	b.set("dataset.sets", float64(len(res.Sets)), "count")
	b.set("dataset.patterns", float64(len(res.Patterns)), "count")
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
