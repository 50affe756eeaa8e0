package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/scpm/scpm/internal/graph"
)

// parityOwner is a minimal complete, disjoint 2-shard partition of the
// level-1 roots: shard k owns the attributes whose id has parity k.
// (internal/shard builds balanced partitions; the property under test —
// merge equivalence — only needs completeness and disjointness, and an
// inline owner avoids the import cycle.)
func parityOwner(k int) func(*graph.Graph, int32) bool {
	return func(_ *graph.Graph, root int32) bool { return int(root)%2 == k }
}

// modOwner is parityOwner generalized to n shards: shard k owns the
// roots whose id ≡ k (mod n) — complete and disjoint, which is all the
// merge needs.
func modOwner(k, n int) func(*graph.Graph, int32) bool {
	return func(_ *graph.Graph, root int32) bool { return int(root)%n == k }
}

// TestGlobalStoreDeterminism pins the miner's determinism contract: in
// exact and sampled ε modes, the output AND the SearchNodes counter are
// identical at any worker count (1/4/8) and any shard count (1/2/4).
// Every coverage search depends only on its own G(S) and candidate set
// — no search state crosses attribute sets — so neither scheduling nor
// partitioning can change what a search visits. (The name predates the
// removal of the cross-set certificate store; the subtest names keep
// the sharing=false label the store's off switch used to carry.)
func TestGlobalStoreDeterminism(t *testing.T) {
	ctx := context.Background()
	for mode, base := range remineParams() {
		t.Run(mode+"-sharing=false", func(t *testing.T) {
			g := remineGraph(t, 2600)
			var want *Result
			check := func(label string, res *Result) {
				t.Helper()
				if want == nil {
					want = res
					return
				}
				requireEqualResults(t, label, res, want)
				if res.Stats.SearchNodes != want.Stats.SearchNodes {
					t.Fatalf("%s: %d search nodes, baseline %d",
						label, res.Stats.SearchNodes, want.Stats.SearchNodes)
				}
			}
			for _, workers := range []int{1, 4, 8} {
				p := base
				p.Parallelism = workers
				res, err := Mine(ctx, g, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("parallel=%d", workers), res)
			}
			for _, n := range []int{1, 2, 4} {
				p := base
				p.Parallelism = 4
				parts := make([]*Result, n)
				for k := 0; k < n; k++ {
					sp := p
					sp.ShardOwner = modOwner(k, n)
					var err error
					if parts[k], err = Mine(ctx, g, sp, nil); err != nil {
						t.Fatal(err)
					}
				}
				merged, err := MergeResults(parts...)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("shards=%d", n), merged)
			}
		})
	}
}
