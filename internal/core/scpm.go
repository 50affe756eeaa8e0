package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/nullmodel"
	"github.com/scpm/scpm/internal/quasiclique"
)

// ErrCanceled is returned (wrapped around context.Cause) when the
// context passed to Mine or MineNaive is done before the search
// finishes. The accompanying *Result holds the well-formed partial
// output collected so far.
var ErrCanceled = quasiclique.ErrCanceled

// ErrBudget is returned when Params.SearchBudget is exhausted; like
// cancellation it comes with the partial result collected so far.
var ErrBudget = quasiclique.ErrBudget

// Mine runs the SCPM algorithm (Algorithm 2) on g and returns the
// attribute sets satisfying σmin/εmin/δmin together with the top-k
// structural correlation patterns of each.
//
// The context is observed throughout the search, including inside the
// quasi-clique engine: when it is done, Mine stops in bounded time and
// returns the partial result alongside an error satisfying
// errors.Is(err, ErrCanceled). A non-nil sink receives streaming events
// as mining proceeds (see Sink for the delivery contract); pass nil for
// batch-only operation.
func Mine(ctx context.Context, g *graph.Graph, p Params, sink Sink) (*Result, error) {
	return mine(ctx, g, p, sink, nil, nil)
}

// mine is the shared walk behind Mine and Remine: when reuse and
// changes are non-nil, evaluations of attribute sets disjoint from the
// dirty attributes are replayed from the recorded lattice instead of
// recomputed.
func mine(ctx context.Context, g *graph.Graph, p Params, sink Sink, reuse *Lattice, changes *graph.ChangeSet) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	qcOpts := p.qcOptions()
	qcOpts.Ctx = ctx
	m := &miner{
		g:        g,
		p:        p,
		qp:       p.QuasiCliqueParams(),
		qcOpts:   qcOpts,
		est:      p.estimator(qcOpts),
		exactEst: epsilon.NewExact(p.QuasiCliqueParams(), qcOpts),
		model:    p.model(g),
		em:       newEmitter(sink, p.ProgressEvery, start),
		reuse:    reuse,
		changes:  changes,
	}
	if p.RecordLattice {
		m.record = newLattice(g.Version())
	}
	if p.ShardOwner != nil {
		m.owner = func(root int32) bool { return p.ShardOwner(g, root) }
	}
	// Sealed level-1 verdicts replay every single-attribute evaluation
	// without touching the engine. A verdict set sealed at a different
	// graph version is silently ignored (live updates fall back to the
	// legacy path, which re-evaluates level 1); a verdict set sealed
	// under different mining parameters is a configuration error and
	// refuses loudly rather than replaying subtly wrong state.
	if p.Level1Verdicts != nil && reuse == nil && p.Level1Verdicts.GraphVersion() == g.Version() {
		if got, want := p.Level1Verdicts.ParamsKey(), p.Level1Fingerprint(); got != want {
			return nil, fmt.Errorf("core: level-1 verdicts sealed under parameters %q, run uses %q", got, want)
		}
		m.verdicts = p.Level1Verdicts
	}
	// Theorem 5's pruning bound needs εexp(σmin) once.
	m.expSigmaMin = m.model.Exp(p.SigmaMin)

	// Level 1 (Algorithm 2 lines 3–15): evaluate every frequent
	// attribute. These evaluations are independent, so they parallelize
	// directly. A sharded run evaluates every single — the non-owned
	// ones muted, because their hand-downs and survival verdicts feed
	// the owned subtrees' sibling lists — but emits/records/counts only
	// the owned slice.
	singles := m.frequentSingles()
	level1 := make([]evalOutcome, len(singles))
	runErr := m.forEach(ctx, len(singles), func(i int, tl *tally) error {
		attrs := []int32{singles[i]}
		muted := m.owner != nil && !m.owner(singles[i])
		out, handled, err := m.replay(attrs, muted, tl)
		if err != nil {
			return err
		}
		if !handled && m.verdicts != nil {
			out, handled, err = m.replayVerdict(singles[i], attrs, muted, tl)
			if err != nil {
				return err
			}
		}
		if !handled {
			members := g.AttrMembers(singles[i])
			out, err = m.evaluate(attrs, members, members, muted, tl)
			if err != nil {
				return err
			}
		}
		level1[i] = out
		return nil
	})

	res := &Result{}
	var survivors []classItem
	for _, out := range level1 {
		m.collect(res, out)
		if out.survive {
			survivors = append(survivors, out.item)
		}
	}
	if runErr != nil {
		res.lattice = m.record
		return finalizeResult(res, m.em, runErr)
	}

	// Extension ordering: ascending support keeps intermediate tidsets
	// small (standard Eclat heuristic); ids break ties for determinism.
	sort.Slice(survivors, func(i, j int) bool {
		si, sj := survivors[i].members.Count(), survivors[j].members.Count()
		if si != sj {
			return si < sj
		}
		return survivors[i].attrs[0] < survivors[j].attrs[0]
	})

	// enumerate-patterns (Algorithm 3): each top-level subtree is
	// independent given its right-sibling list, so subtrees parallelize.
	// A sharded run descends only the subtrees it owns; every attribute
	// set below an owned root belongs to this shard by the prefix
	// ownership rule, so everything in the subtree is unmuted.
	buckets := make([]*Result, len(survivors))
	runErr = m.forEach(ctx, len(survivors), func(i int, tl *tally) error {
		if m.owner != nil && !m.owner(survivors[i].attrs[0]) {
			return nil
		}
		buckets[i] = &Result{}
		return m.extendSubtree(ctx, survivors[i], survivors[i+1:], buckets[i], tl)
	})
	// Pre-size the merged slices from the per-subtree counts: appending
	// bucket by bucket into growing slices re-copies the whole result
	// O(log) times, a visible slice of the allocation tail on runs
	// emitting tens of thousands of sets.
	nSets, nPats := len(res.Sets), len(res.Patterns)
	for _, b := range buckets {
		if b != nil {
			nSets += len(b.Sets)
			nPats += len(b.Patterns)
		}
	}
	res.Sets = append(make([]AttributeSet, 0, nSets), res.Sets...)
	res.Patterns = append(make([]Pattern, 0, nPats), res.Patterns...)
	for _, b := range buckets {
		if b == nil {
			continue
		}
		res.Sets = append(res.Sets, b.Sets...)
		res.Patterns = append(res.Patterns, b.Patterns...)
	}
	res.lattice = m.record
	return finalizeResult(res, m.em, runErr)
}

// finalizeResult puts a run's output in canonical order and stamps the
// final counters. Cancellation and budget exhaustion surface the
// partial result alongside the error; any other error discards it.
func finalizeResult(res *Result, em *emitter, err error) (*Result, error) {
	// The terminal OnProgress fires however the run ends — the Sink
	// contract promises it, and sinks flush on it.
	defer em.finish()
	if err != nil && !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrBudget) {
		return nil, err
	}
	sortResult(res)
	res.Stats = em.snapshot()
	return res, err
}

// miner carries the immutable run state shared by all workers.
type miner struct {
	g           *graph.Graph
	p           Params
	qp          quasiclique.Params
	qcOpts      quasiclique.Options
	est         epsilon.Estimator
	exactEst    *epsilon.Exact
	model       nullmodel.Model
	em          *emitter
	expSigmaMin float64

	// owner, when non-nil, claims the top-level roots this run owns
	// (Params.ShardOwner bound to the mined graph); nil owns everything.
	owner func(root int32) bool

	// verdicts, when non-nil, replays level-1 single-attribute
	// evaluations from sealed state instead of searching
	// (Params.Level1Verdicts, validated against the graph version and
	// the parameter fingerprint).
	verdicts *Level1Verdicts

	// Incremental re-mining state: reuse is the previous run's lattice
	// and changes the graph update it is valid across (both nil for a
	// full mine); record, when non-nil, collects this run's lattice.
	reuse   *Lattice
	changes *graph.ChangeSet
	record  *Lattice
}

// classItem is a node of the attribute-set search tree: the set, its
// member vertices and its covered set K_S (Theorem 3 hands K_S down to
// restrict the children's quasi-clique searches).
type classItem struct {
	attrs   []int32
	members *bitset.Set
	covered *bitset.Set
}

// evalOutcome couples an evaluated item with its bucket contributions.
type evalOutcome struct {
	item    classItem
	survive bool
	set     *AttributeSet
	pats    []Pattern
}

// childAttrs forms the attribute set of the child obtained by
// extending item with its sibling's last attribute.
func childAttrs(item, sib classItem) []int32 {
	return append(append(make([]int32, 0, len(item.attrs)+1), item.attrs...), sib.attrs[len(sib.attrs)-1])
}

// frequentSingles returns the attribute ids with support ≥ σmin,
// ascending.
func (m *miner) frequentSingles() []int32 {
	var out []int32
	for a := int32(0); a < int32(m.g.NumAttributes()); a++ {
		if m.g.AttrSupport(a) >= m.p.SigmaMin {
			out = append(out, a)
		}
	}
	return out
}

// forEach runs fn(0..n-1) either sequentially or on the configured
// worker pool, propagating the first error. The context is checked
// before each task so cancellation is observed between evaluations even
// when the individual searches are too small to poll it themselves.
//
// Task dispatch is a lock-free atomic counter: workers claim indices
// with next.Add and bail out once failed flips, so the only
// synchronization on the hot path is one fetch-add per task. The first
// error to arrive wins (recorded exactly once through errOnce); workers
// that already claimed a task finish it, but no new tasks are claimed
// after the failure is published.
//
// Each worker owns a tally for the scheduling-sensitive counters and
// merges it into the emitter when it exits (errors included), so the
// run totals are identical for every Parallelism value.
func (m *miner) forEach(ctx context.Context, n int, fn func(i int, tl *tally) error) error {
	workers := m.p.Parallelism
	if workers <= 1 || n <= 1 {
		var tl tally
		defer m.em.merge(&tl)
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return quasiclique.Canceled(ctx)
			}
			if err := fn(i, &tl); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		rerr    error
	)
	record := func(err error) {
		errOnce.Do(func() { rerr = err })
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tl tally
			defer m.em.merge(&tl)
			for !failed.Load() {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				err := ctx.Err()
				if err != nil {
					err = quasiclique.Canceled(ctx)
				} else {
					err = fn(int(i), &tl)
				}
				if err != nil {
					record(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return rerr
}

// extendSubtree explores all attribute sets extending item with
// attributes from its right-sibling list (Algorithm 3), collecting
// emissions into out.
func (m *miner) extendSubtree(ctx context.Context, item classItem, siblings []classItem, out *Result, tl *tally) error {
	if m.p.MaxAttrs > 0 && len(item.attrs) >= m.p.MaxAttrs {
		return nil
	}
	var children []classItem
	for _, sib := range siblings {
		if ctx.Err() != nil {
			return quasiclique.Canceled(ctx)
		}
		var (
			attrs   []int32
			res     evalOutcome
			handled bool
			err     error
		)
		// Incremental runs consult the lattice before doing any tidset
		// work — a clean cached child costs one map lookup instead of a
		// bitset intersection plus a coverage search.
		if m.reuse != nil {
			attrs = childAttrs(item, sib)
			res, handled, err = m.replay(attrs, false, tl)
			if err != nil {
				return err
			}
		}
		if !handled {
			members := item.members.Intersect(sib.members)
			if members.Count() < m.p.SigmaMin {
				continue
			}
			if attrs == nil {
				attrs = childAttrs(item, sib)
			}
			// Theorem 3: quasi-cliques of G(S) lie inside both parents'
			// covered sets, so the search may be restricted to their
			// intersection.
			candidates := members
			if !m.p.DisableVertexPruning {
				candidates = item.covered.Intersect(sib.covered)
			}
			res, err = m.evaluate(attrs, members, candidates, false, tl)
			if err != nil {
				return err
			}
		}
		m.collect(out, res)
		if res.survive {
			children = append(children, res.item)
		}
	}
	for i := range children {
		if err := m.extendSubtree(ctx, children[i], children[i+1:], out, tl); err != nil {
			return err
		}
	}
	return nil
}

// evaluate computes ε(S) and δ(S) for one attribute set, decides
// emission and survival, and mines the top-k patterns when S qualifies.
//
//   - members is V(S);
//   - candidates ⊆ members restricts the coverage search (Theorem 3).
//
// The ε computation itself is delegated to the run's estimator layer
// (exact coverage search or Hoeffding-bounded vertex sampling); the
// estimate carries the covered-set hand-down and the |K_S| upper bound
// the pruning rules below rely on, so Theorems 3–5 stay sound in both
// modes.
//
// muted marks a non-owned level-1 evaluation of a sharded run: the item
// (hand-down included) is computed bit-identically, but nothing is
// emitted, recorded or counted — the owning shard does that exactly
// once.
func (m *miner) evaluate(attrs []int32, members, candidates *bitset.Set, muted bool, tl *tally) (evalOutcome, error) {
	est, err := m.est.Estimate(m.g, attrs, members, candidates)
	if err != nil {
		return evalOutcome{}, err
	}
	if !muted {
		m.em.noteEvaluated()
		tl.noteSearchNodes(est.Nodes)
		tl.noteSampled(int64(est.SampledVertices))
	}
	return m.score(attrKey(attrs), attrs, members, members.Count(), est, nil, muted, tl)
}

// replay serves one attribute set from the previous run's lattice when
// the update provably left it unchanged: a set disjoint from the dirty
// attributes has identical V(S) and G(S) in both graph versions, so
// the memoized evaluation — member set included, which skips even the
// Eclat tidset intersection — is the current one. Only the
// δ-normalization (recomputed by score either way) can differ. handled
// reports whether the cache answered.
func (m *miner) replay(attrs []int32, muted bool, tl *tally) (out evalOutcome, handled bool, err error) {
	if m.reuse == nil || m.changes.Touches(attrs) {
		return evalOutcome{}, false, nil
	}
	key := attrKey(attrs)
	ent, ok := m.reuse.get(key)
	if !ok {
		return evalOutcome{}, false, nil
	}
	if !muted {
		m.em.noteReused()
	}
	members := grownTo(ent.members, m.g.NumVertices())
	out, err = m.score(key, attrs, members, ent.sigma, ent.estimate(m.g.NumVertices()), ent, muted, tl)
	return out, true, err
}

// score turns one ε estimate — freshly computed, or replayed from a
// previous run's lattice (cached non-nil) — into the evaluation
// outcome: survival under Theorems 4–5, emission against the output
// thresholds, and pattern mining for qualifying sets. It also records
// the evaluation into the run's lattice when recording is on.
//
// A muted call (non-owned level-1 single of a sharded run) produces the
// same classItem — including the lazy exact hand-down refinement of
// sampled mode, which siblings' children consume — but suppresses
// emission, pattern mining, lattice recording and counter updates.
func (m *miner) score(key string, attrs []int32, members *bitset.Set, sigma int, est epsilon.Estimate, cached *latticeEntry, muted bool, tl *tally) (evalOutcome, error) {
	eps := est.Epsilon
	expEps := m.model.Exp(sigma)
	delta := NormalizeDelta(eps, expEps)

	out := evalOutcome{item: classItem{attrs: attrs, members: members, covered: est.Handdown}}

	var rec *latticeEntry
	if m.record != nil && !muted {
		rec = &latticeEntry{
			members:         members,
			sigma:           sigma,
			eps:             eps,
			covered:         est.Covered,
			kmass:           est.KMass,
			estimated:       est.Estimated,
			errBound:        est.ErrBound,
			sampledVertices: est.SampledVertices,
			handdown:        est.Handdown,
		}
		m.record.put(key, rec)
	}

	// Theorem 4 (ε) and Theorem 5 (δ) survival bounds: a superset S'
	// has ε(S')·σ(S') ≤ ε(S)·σ(S) = |K_S|, so S is extended only when
	// |K_S| could still satisfy both output thresholds at support σmin.
	// In sampled mode est.KMass upper-bounds |K_S| (w.p. 1−δ), keeping
	// the pruning sound at the configured confidence.
	if m.p.DisableSetPruning {
		out.survive = true
	} else {
		out.survive = est.KMass >= m.p.EpsMin*float64(m.p.SigmaMin) &&
			est.KMass >= m.p.DeltaMin*m.expSigmaMin*float64(m.p.SigmaMin)
	}

	if eps >= m.p.EpsMin && delta >= m.p.DeltaMin && len(attrs) >= m.p.minAttrs() {
		sorted := append([]int32(nil), attrs...)
		slices.Sort(sorted)
		if !muted {
			out.set = &AttributeSet{
				Attrs:           sorted,
				Names:           m.g.AttrSetNames(sorted),
				Support:         sigma,
				Epsilon:         eps,
				ExpEps:          expEps,
				Delta:           delta,
				Covered:         est.Covered,
				Estimated:       est.Estimated,
				EpsilonErr:      est.ErrBound,
				SampledVertices: est.SampledVertices,
			}
		}
		// Patterns are mined from K_S. An estimated evaluation does not
		// know K_S, so it is computed lazily here — restricted to the
		// hand-down superset (Theorem 3), and only for sets that
		// actually pass the output thresholds, which keeps the sampling
		// speedup intact while the reported patterns stay exact.
		if (m.p.K > 0 || m.p.AllPatterns) && !est.Handdown.IsEmpty() {
			base := est.Handdown
			if est.Estimated {
				if cached != nil && cached.exact != nil {
					base = grownTo(cached.exact, m.g.NumVertices())
				} else {
					exact, err := m.exactEst.Estimate(m.g, attrs, members, est.Handdown)
					if err != nil {
						return evalOutcome{}, err
					}
					if !muted {
						tl.noteSearchNodes(exact.Nodes)
					}
					base = exact.Handdown
				}
				// The exact K_S is in hand now — hand it down to the
				// children instead of the looser sampled superset, just
				// like exact mode would (Theorem 3). Muted evaluations
				// refine too: a sibling's child in an owned subtree
				// intersects this hand-down, so it must match the
				// single-process one bit for bit.
				out.item.covered = base
				if rec != nil {
					rec.exact = base
				}
			}
			if !base.IsEmpty() && !muted {
				if cached != nil && cached.hasPats {
					out.pats = cached.pats
				} else {
					pats, err := m.topPatterns(sorted, base)
					if err != nil {
						return evalOutcome{}, err
					}
					out.pats = pats
				}
				if rec != nil {
					rec.pats = out.pats
					rec.hasPats = true
				}
			}
		}
	}
	return out, nil
}

// topPatterns mines the top-k quasi-cliques of G(S) — or, in SCORP
// mode, all of them. Since every quasi-clique lives inside K_S, the
// search runs on the covered set.
func (m *miner) topPatterns(attrs []int32, covered *bitset.Set) ([]Pattern, error) {
	sub := m.g.InducedByMembers(covered)
	qg := quasiclique.NewGraphCSR(sub.CSR())
	var top []quasiclique.Pattern
	var err error
	if m.p.AllPatterns {
		top, err = quasiclique.EnumerateMaximal(qg, m.qp, m.qcOpts)
	} else {
		top, err = quasiclique.TopK(qg, m.qp, m.p.K, m.qcOpts)
	}
	if err != nil {
		return nil, err
	}
	names := m.g.AttrSetNames(attrs)
	out := make([]Pattern, len(top))
	for i, q := range top {
		verts := make([]int32, len(q.Vertices))
		for j, lv := range q.Vertices {
			verts[j] = sub.Orig[lv]
		}
		out[i] = Pattern{
			Attrs:    attrs,
			Names:    names,
			Vertices: verts,
			MinDeg:   q.MinDeg,
			Edges:    q.Edges,
		}
	}
	return out, nil
}

// collect moves an outcome's emissions into a result bucket and streams
// them to the sink.
func (m *miner) collect(res *Result, out evalOutcome) {
	if out.set == nil {
		return
	}
	res.Sets = append(res.Sets, *out.set)
	res.Patterns = append(res.Patterns, out.pats...)
	m.em.emitSet(*out.set, out.pats)
}
