package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Ranking selects the ordering criterion of TopSets.
type Ranking int

const (
	// BySupport ranks by σ descending (first column block of Tables
	// 2–4).
	BySupport Ranking = iota
	// ByEpsilon ranks by ε descending (second block).
	ByEpsilon
	// ByDelta ranks by δ descending (third block).
	ByDelta
)

// String names the ranking for table headers.
func (r Ranking) String() string {
	switch r {
	case BySupport:
		return "σ"
	case ByEpsilon:
		return "ε"
	default:
		return "δ"
	}
}

// Compare orders two attribute sets under the ranking: negative when a
// ranks before b, positive when after, zero on a tie. Sets rank by the
// ranking's metric descending, then by support descending; infinite δ
// values rank first under ByDelta (they arise when εexp underflows).
// Callers break the remaining ties themselves.
func (r Ranking) Compare(a, b *AttributeSet) int {
	switch r {
	case ByEpsilon:
		if a.Epsilon != b.Epsilon {
			return before(a.Epsilon > b.Epsilon)
		}
	case ByDelta:
		if a.Delta != b.Delta {
			return before(greaterWithInf(a.Delta, b.Delta))
		}
	}
	if a.Support != b.Support {
		return before(a.Support > b.Support)
	}
	return 0
}

// before maps "ranks first" to a Compare result for two unequal keys.
func before(first bool) int {
	if first {
		return -1
	}
	return 1
}

// TopSets returns the n best attribute sets under the given ranking
// (see Ranking.Compare), breaking the remaining ties canonically.
func TopSets(sets []AttributeSet, r Ranking, n int) []AttributeSet {
	out := append([]AttributeSet(nil), sets...)
	sort.Slice(out, func(i, j int) bool {
		if c := r.Compare(&out[i], &out[j]); c != 0 {
			return c < 0
		}
		return lessAttrs(out[i].Attrs, out[j].Attrs)
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func greaterWithInf(a, b float64) bool {
	if math.IsInf(a, 1) {
		return !math.IsInf(b, 1)
	}
	if math.IsInf(b, 1) {
		return false
	}
	return a > b
}

// FormatSetsTable renders attribute sets as an aligned text table with
// the σ/ε/δ columns of the paper's case-study tables.
func FormatSetsTable(sets []AttributeSet) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-42s %8s %8s %12s\n", "S", "σ", "ε", "δ")
	for _, s := range sets {
		fmt.Fprintf(&sb, "%-42s %8d %8.3f %12.4g\n",
			strings.Join(s.Names, " "), s.Support, s.Epsilon, s.Delta)
	}
	return sb.String()
}

// FormatPatternsTable renders patterns like Table 1.
func FormatPatternsTable(pats []Pattern) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-52s %6s %6s\n", "pattern", "size", "γ")
	for _, p := range pats {
		fmt.Fprintf(&sb, "({%s},%v) %*d %6.2f\n",
			strings.Join(p.Names, ","), p.Vertices,
			52-len(patternPrefix(p))+6, p.Size(), p.Density())
	}
	return sb.String()
}

func patternPrefix(p Pattern) string {
	return fmt.Sprintf("({%s},%v)", strings.Join(p.Names, ","), p.Vertices)
}
