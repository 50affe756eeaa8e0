package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// mineOp is one repeated Mine configuration with the digest every call
// must reproduce.
type mineOp struct {
	name string
	role int // 0: the headline Mine, 1: the alternative
	g    *graph.Graph
	p    core.Params
	ref  [32]byte
}

// mineCall is the measurement of one Mine call.
type mineCall struct {
	role     int
	secs     float64
	cpu      float64 // process CPU seconds, every goroutine (GC included)
	steal    float64 // steal share of the machine's CPU time during the call
	heapPeak float64
	allocs   float64
	bytes    float64
	gcs      float64
	traced   bool
	stats    core.Stats
}

// mineState is what a mining workload's set-up leaves behind.
type mineState struct {
	d      *dataset
	graphs []*graph.Graph // mine-dense: the labellings of the exact Mine
	refs   [][32]byte
	res    *core.Result // the parallelism-1 exact reference, for the shape line
}

// runMineDBLP: repeated exact Mine on dblp@0.2 at nproc, alternating
// with the same Mine at parallelism 1.
func runMineDBLP(ctx context.Context, b *bench) error {
	st, err := repeatSetup(b, func() (mineState, error) {
		d, err := generate(b, "dblp")
		if err != nil {
			return mineState{}, err
		}
		ref, err := mine(ctx, b, d.g, d.params(1), "core.Mine.reference")
		if err != nil {
			return mineState{}, err
		}
		return mineState{d: d, refs: [][32]byte{digest(ref)}, res: ref}, nil
	})
	if err != nil {
		return err
	}
	shape(b, st.d, st.res)
	st.res = nil // only the digests stay live while Mine is measured
	ops := []mineOp{
		{"exact", 0, st.d.g, st.d.params(runtime.NumCPU()), st.refs[0]},
		{"exact_p1", 1, st.d.g, st.d.params(1), st.refs[0]},
	}
	return mineWorkload(ctx, b, st, ops)
}

// denseLabellings is how many labellings of dense@0.2 the exact Mine
// of one mine-dense run cycles through: the seed's own and ones drawn
// from it. How evenly the parallel search splits between the CPUs
// follows the vertex ids, so one labelling's wall time differs from
// another's by up to ~20% with the same CPU time; a run's median over
// several labellings moves far less from seed to seed.
const denseLabellings = 6

// labellingSeed is the relabelling seed of a run's k-th labelling.
func labellingSeed(seed int64, k int) int64 { return seed + int64(k)<<32 }

// runMineDense: repeated exact and sampled Mine on dense@0.2 at nproc,
// the exact Mine on denseLabellings labellings in turn.
// The sampled Mine runs on the profile's own labelling: which vertices
// the estimator samples follows the vertex ids, and under some
// relabellings a borderline set crosses εmin (3 sets instead of 2, at
// ~10× the time), so a relabelled sampled run would measure a different
// problem per seed.
func runMineDense(ctx context.Context, b *bench) error {
	st, err := repeatSetup(b, func() (mineState, error) {
		d, err := generate(b, "dense")
		if err != nil {
			return mineState{}, err
		}
		sref, err := mine(ctx, b, d.orig, sampled(d.params(1)), "core.Mine.reference")
		if err != nil {
			return mineState{}, err
		}
		st := mineState{d: d, refs: [][32]byte{digest(sref)}}
		for k := range denseLabellings {
			g := d.g
			if k > 0 {
				if g, err = relabel(d.orig, labellingSeed(b.seed, k)); err != nil {
					return mineState{}, err
				}
			}
			ref, err := mine(ctx, b, g, d.params(1), "core.Mine.reference")
			if err != nil {
				return mineState{}, err
			}
			if k == 0 {
				st.res = ref
			}
			st.graphs = append(st.graphs, g)
			st.refs = append(st.refs, digest(ref))
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	shape(b, st.d, st.res)
	st.res = nil // only the digests stay live while Mine is measured
	n := runtime.NumCPU()
	// Each exact call is followed by a sampled one, so both are timed
	// as often as each other.
	var ops []mineOp
	for k, g := range st.graphs {
		ops = append(ops,
			mineOp{"exact", 0, g, st.d.params(n), st.refs[1+k]},
			mineOp{"sampled", 1, st.d.orig, sampled(st.d.params(n)), st.refs[0]})
	}
	return mineWorkload(ctx, b, st, ops)
}

// mineWorkload times the ops round-robin for the run's budget and
// records the metrics of the headline and the alternative role.
func mineWorkload(ctx context.Context, b *bench, st mineState, ops []mineOp) error {
	// Warm-up: one checked call per op lets pools, caches and the heap
	// reach their steady size before the clock starts.
	for _, op := range ops {
		res, err := core.Mine(ctx, op.g, op.p, nil)
		if err != nil {
			return err
		}
		b.check(digest(res) == op.ref, "warm-up %s Mine digest differs from the parallelism-1 reference", op.name)
	}
	var calls []mineCall
	untraced := b.seconds
	if b.traced {
		untraced = b.seconds / 2
	}
	cs, err := mineLoop(ctx, b, st, ops, untraced, false)
	if err != nil {
		return err
	}
	calls = append(calls, cs...)
	if b.traced {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		cs, err := mineLoop(ctx, b, st, ops, b.seconds-untraced, true)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		calls = append(calls, cs...)
		split := cpuSplit{}
		if err := parseCPUProfile(prof.Bytes(), b.workDir, split); err != nil {
			return err
		}
		setCPU(b, split)
	}

	pick := func(role int, traced bool, f func(mineCall) float64) []float64 {
		var xs []float64
		for _, c := range calls {
			if c.role == role && c.traced == traced {
				xs = append(xs, f(c))
			}
		}
		return xs
	}
	ms := func(c mineCall) float64 { return c.secs * 1e3 }
	main, alt := pick(0, false, ms), pick(1, false, ms)
	fmt.Fprintf(b.out, "mine: %d %s and %d %s calls untraced\n", len(main), ops[0].name, len(alt), ops[1].name)
	cpu := func(c mineCall) float64 { return c.cpu * 1e3 }
	b.set("cpu_ms", median(pick(0, false, cpu)), "ms")
	b.set("alt_cpu_ms", median(pick(1, false, cpu)), "ms")
	b.set("memory_bytes", median(pick(0, false, func(c mineCall) float64 { return c.heapPeak })), "bytes")
	// The steal share over the headline calls, weighted by their length.
	var stolen, total float64
	for _, c := range calls {
		if c.role == 0 && !c.traced {
			stolen += c.steal * c.secs
			total += c.secs
		}
	}
	b.set("run.steal_share", stolen/total, "ratio")
	// Each call net of the steal during it: steal comes in bursts, and
	// a median of the calls' own corrections follows them more closely
	// than one correction by the run's share.
	b.set("mine_wall_ms", median(pick(0, false, func(c mineCall) float64 { return netOfSteal(c.secs*1e3, c.steal) })), "ms")
	b.set("e2e.mine_s", median(main)/1e3, "s")
	b.set("e2e.mine_heap_peak_bytes", b.metrics["memory_bytes"], "bytes")
	if ops[1].p.EpsilonMode == core.EpsilonSampled {
		b.set("e2e.mine_sampled_s", median(alt)/1e3, "s")
	} else {
		b.set("e2e.mine_p1_s", median(alt)/1e3, "s")
	}
	if !b.traced {
		return nil
	}

	traced := pick(0, true, ms)
	b.set("trace.overhead_ms", median(traced)-median(main), "ms")
	b.set("core.mine_s", median(traced)/1e3, "s")
	b.set("core.allocs", median(pick(0, true, func(c mineCall) float64 { return c.allocs })), "count")
	b.set("core.alloc_bytes", median(pick(0, true, func(c mineCall) float64 { return c.bytes })), "bytes")
	b.set("core.gc_cycles", median(pick(0, true, func(c mineCall) float64 { return c.gcs })), "count")
	last := calls[len(calls)-1].stats
	for _, c := range calls {
		if c.role == 0 {
			last = c.stats
		}
	}
	setStats(b, last)
	b.set("datagen.generate_s", median(b.tr.durations("datagen.Generate")), "s")
	res, err := core.Mine(ctx, ops[0].g, ops[0].p, nil)
	if err != nil {
		return err
	}
	return probe(ctx, b, st.d, res, ops[0].p)
}

// setStats records a Mine call's deterministic work counters.
func setStats(b *bench, s core.Stats) {
	b.set("core.sets_evaluated", float64(s.SetsEvaluated), "count")
	b.set("core.sets_emitted", float64(s.SetsEmitted), "count")
	b.set("core.patterns_emitted", float64(s.PatternsEmitted), "count")
	b.set("core.search_nodes", float64(s.SearchNodes), "count")
	b.set("core.sampled_vertices", float64(s.SampledVertices), "count")
}

// mineLoop calls the ops round-robin until the budget is spent (and at
// least three rounds ran), checking every result against its reference.
func mineLoop(ctx context.Context, b *bench, st mineState, ops []mineOp, budget time.Duration, traced bool) ([]mineCall, error) {
	var calls []mineCall
	heap := newHeapSampler()
	defer heap.stop()
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < budget; round++ {
		for _, op := range ops {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			heap.reset()
			sp := b.tr.start("core.Mine." + op.name)
			clock, err := startStealClock()
			if err != nil {
				return nil, err
			}
			t0, c0 := time.Now(), selfCPU()
			res, err := core.Mine(ctx, op.g, op.p, nil)
			secs, cpu := time.Since(t0).Seconds(), selfCPU()-c0
			steal, serr := clock.share()
			sp.end()
			if serr != nil {
				return nil, serr
			}
			peak := heap.peak()
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			b.check(digest(res) == op.ref, "%s Mine digest differs from the parallelism-1 reference", op.name)
			calls = append(calls, mineCall{
				role: op.role, secs: secs, cpu: cpu, steal: steal, heapPeak: peak, traced: traced, stats: res.Stats,
				allocs: float64(after.Mallocs - before.Mallocs),
				bytes:  float64(after.TotalAlloc - before.TotalAlloc),
				gcs:    float64(after.NumGC - before.NumGC),
			})
		}
	}
	return calls, nil
}

// selfCPU returns the process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapSampler tracks the peak of live heap objects between resets by
// polling runtime/metrics, which does not stop the world.
type heapSampler struct {
	done   chan struct{}
	resetC chan struct{}
	peakC  chan float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func newHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), resetC: make(chan struct{}), peakC: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		read := func() float64 {
			metrics.Read(s)
			return float64(s[0].Value.Uint64())
		}
		peak := read()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-h.resetC:
				peak = read()
			case h.peakC <- max(peak, read()):
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	return h
}

func (h *heapSampler) reset()        { h.resetC <- struct{}{} }
func (h *heapSampler) peak() float64 { return <-h.peakC }
func (h *heapSampler) stop()         { close(h.done) }
