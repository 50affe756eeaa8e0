package core

import (
	"context"
	"fmt"
	"time"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
)

// Level1Verdict seals one frequent single attribute's complete level-1
// evaluation: everything a mining run derives from the coverage search
// of {Attr} — the ε estimate, the Theorem-3 hand-down, the lazily
// refined exact hand-down of sampled mode, the mined patterns and the
// search-node bill. A run injecting the verdict (Params.Level1Verdicts)
// reproduces the evaluation bit-identically — sibling lists, survival,
// emission, recorded lattice entry and merged stats included — without
// running any coverage search.
//
// Member sets are NOT sealed: V({a}) is the graph's own attribute
// posting (graph.AttrMembers), identical by construction, so sealing it
// would only bloat the manifest.
type Level1Verdict struct {
	// Attr is the evaluated single attribute id.
	Attr int32
	// Epsilon, Covered, KMass, Estimated, ErrBound and SampledVertices
	// mirror the epsilon.Estimate fields of the sealed evaluation.
	Epsilon         float64
	Covered         int
	KMass           float64
	Estimated       bool
	ErrBound        float64
	SampledVertices int
	// Handdown is the estimator's covered-set hand-down (Theorem 3);
	// Exact is the lazily-refined exact hand-down recorded only when the
	// sealed evaluation computed it (sampled mode, emitted set).
	Handdown *bitset.Set
	Exact    *bitset.Set
	// Patterns are the top-k patterns mined for {Attr} when it passed
	// the output thresholds; HasPatterns distinguishes "mined, none
	// found" from "never mined".
	Patterns    []Pattern
	HasPatterns bool
	// Nodes is the total search-node bill of the sealed evaluation (the
	// ε search plus the lazy exact refinement), credited to the replaying
	// run's SearchNodes so merged shard stats still sum to the
	// single-process counters.
	Nodes int64
}

// Level1Verdicts is a sealed set of level-1 evaluations, keyed by
// attribute id and pinned to the graph version and parameter
// fingerprint it was computed under. ComputeLevel1 builds one;
// internal/shard seals it into scpm-manifest/v3 and injects it into
// shard workers via Params.Level1Verdicts.
type Level1Verdicts struct {
	graphVersion uint64
	paramsKey    string
	byAttr       map[int32]*Level1Verdict
}

// NewLevel1Verdicts returns an empty verdict set for the given graph
// version and parameter fingerprint (Params.Level1Fingerprint).
func NewLevel1Verdicts(graphVersion uint64, paramsKey string) *Level1Verdicts {
	return &Level1Verdicts{
		graphVersion: graphVersion,
		paramsKey:    paramsKey,
		byAttr:       make(map[int32]*Level1Verdict),
	}
}

// Add records one verdict, replacing any previous verdict for the same
// attribute.
func (v *Level1Verdicts) Add(d *Level1Verdict) { v.byAttr[d.Attr] = d }

// Lookup returns the verdict for an attribute, or nil.
func (v *Level1Verdicts) Lookup(attr int32) *Level1Verdict { return v.byAttr[attr] }

// Len reports the number of sealed verdicts.
func (v *Level1Verdicts) Len() int { return len(v.byAttr) }

// GraphVersion is the data version the verdicts were computed at; a run
// over any other version ignores them and evaluates level 1 itself.
func (v *Level1Verdicts) GraphVersion() uint64 { return v.graphVersion }

// ParamsKey is the Level1Fingerprint of the parameters the verdicts
// were computed under; a run whose fingerprint differs refuses them.
func (v *Level1Verdicts) ParamsKey() string { return v.paramsKey }

// ComputeLevel1 evaluates every frequent single attribute of g under p
// — exactly as an unsharded Mine would, parallelized the same way — and
// seals the outcomes as verdicts for injection into sharded runs. p is
// the full mining parameter block of the runs that will consume the
// verdicts; ShardOwner and Level1Verdicts are ignored.
func ComputeLevel1(ctx context.Context, g *graph.Graph, p Params) (*Level1Verdicts, error) {
	p.ShardOwner = nil
	p.Level1Verdicts = nil
	if err := p.Validate(); err != nil {
		return nil, err
	}
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
		em:       newEmitter(nil, p.ProgressEvery, time.Now()),
		// Recording is forced on: the lattice entry written by score IS
		// the verdict body (recording never changes evaluation behavior,
		// only captures it).
		record: newLattice(g.Version()),
	}
	m.expSigmaMin = m.model.Exp(p.SigmaMin)

	singles := m.frequentSingles()
	nodes := make([]int64, len(singles))
	err := m.forEach(ctx, len(singles), func(i int, tl *tally) error {
		attrs := []int32{singles[i]}
		// A private tally isolates this single's node bill; the run-level
		// tally is unused (the throwaway emitter's totals are discarded).
		var local tally
		members := g.AttrMembers(singles[i])
		if _, err := m.evaluate(attrs, members, members, false, &local); err != nil {
			return err
		}
		nodes[i] = local.nodes
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := NewLevel1Verdicts(g.Version(), p.Level1Fingerprint())
	for i, a := range singles {
		// The recorded lattice is read only after every worker finished.
		ent, ok := m.record.get(attrKey([]int32{a}))
		if !ok {
			return nil, fmt.Errorf("core: level-1 evaluation of attribute %d left no record", a)
		}
		out.Add(&Level1Verdict{
			Attr:            a,
			Epsilon:         ent.eps,
			Covered:         ent.covered,
			KMass:           ent.kmass,
			Estimated:       ent.estimated,
			ErrBound:        ent.errBound,
			SampledVertices: ent.sampledVertices,
			Handdown:        ent.handdown,
			Exact:           ent.exact,
			Patterns:        ent.pats,
			HasPatterns:     ent.hasPats,
			Nodes:           nodes[i],
		})
	}
	return out, nil
}

// replayVerdict serves one level-1 single from the injected sealed
// verdicts: the member set comes from the graph's attribute posting,
// the sealed estimate and pattern state route through score exactly
// like a lattice replay, and — for owned singles — the sealed
// search-node bill is credited so merged shard stats still sum to the
// single-process run's. handled is false when no verdict covers the
// attribute; the caller then evaluates live.
func (m *miner) replayVerdict(a int32, attrs []int32, muted bool, tl *tally) (evalOutcome, bool, error) {
	v := m.verdicts.Lookup(a)
	if v == nil {
		return evalOutcome{}, false, nil
	}
	members := m.g.AttrMembers(a)
	ent := &latticeEntry{
		members:         members,
		sigma:           members.Count(),
		eps:             v.Epsilon,
		covered:         v.Covered,
		kmass:           v.KMass,
		estimated:       v.Estimated,
		errBound:        v.ErrBound,
		sampledVertices: v.SampledVertices,
		handdown:        v.Handdown,
		exact:           v.Exact,
		pats:            v.Patterns,
		hasPats:         v.HasPatterns,
	}
	if !muted {
		m.em.noteEvaluated()
		m.em.noteVerdictReplayed()
		tl.noteSearchNodes(v.Nodes)
		tl.noteSampled(int64(v.SampledVertices))
	}
	out, err := m.score(attrKey(attrs), attrs, members, ent.sigma, ent.estimate(m.g.NumVertices()), ent, muted, tl)
	return out, true, err
}
