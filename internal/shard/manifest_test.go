package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

func TestManifestRoundTrip(t *testing.T) {
	g := testGraph(t, 1234)
	snaps := []string{"s0.scpmidx", "s1.scpmidx", "s2.scpmidx"}
	m, err := BuildManifestSealed(context.Background(), g, testParams()["exact"], 3, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("fresh manifest fails verification: %v", err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(m, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 3 || got.SigmaMin != 20 || len(got.Snapshots) != 3 {
		t.Fatalf("round-trip mangled manifest: %+v", got)
	}
	if got.Vertices != g.NumVertices() || got.Edges != g.NumEdges() || got.Attributes != g.NumAttributes() {
		t.Fatalf("round-trip mangled dataset shape: %+v", got)
	}
	if len(got.Roots) == 0 {
		t.Fatal("manifest lists no frequent roots")
	}
	for i, r := range got.Roots {
		if r.Rank != i {
			t.Fatalf("root %d has rank %d", i, r.Rank)
		}
		if i > 0 {
			prev := got.Roots[i-1]
			if r.Support < prev.Support || (r.Support == prev.Support && r.ID < prev.ID) {
				t.Fatalf("roots not in extension order at rank %d: %+v after %+v", i, r, prev)
			}
		}
	}
}

func TestManifestChecksumTamper(t *testing.T) {
	g := testGraph(t, 1235)
	m, err := BuildManifestSealed(context.Background(), g, testParams()["exact"], 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(m, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a shard assignment without resealing.
	tampered := strings.Replace(string(b), `"shard": 0`, `"shard": 1`, 1)
	if tampered == string(b) {
		t.Fatal("test graph produced no shard-0 root to tamper with")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("LoadManifest accepted a tampered manifest (err=%v)", err)
	}
}

// TestManifestRouting asserts the gateway's routing contract: every
// set a shard's mining run emits routes (by its attribute names) back
// to exactly that shard.
func TestManifestRouting(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 1236)
	p := testParams()["exact"]
	const n = 3
	m, err := buildManifest(g, p.SigmaMin, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for k := 0; k < n; k++ {
		res, err := Mine(ctx, g, p, k, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Sets {
			if got := m.Route(s.Names); got != k {
				t.Fatalf("set %v mined by shard %d but routed to %d", s.Names, k, got)
			}
			routed++
		}
	}
	if routed == 0 {
		t.Fatal("no sets mined; routing property vacuous")
	}
	// Sets with no frequent attribute route deterministically in range.
	s1 := m.Route([]string{"no-such-attr"})
	s2 := m.Route([]string{"no-such-attr"})
	if s1 != s2 || s1 < 0 || s1 >= n {
		t.Fatalf("hash routing unstable or out of range: %d, %d", s1, s2)
	}
}

// TestManifestSealedRoundTrip covers the v3 format end to end, in
// exact and sampled ε modes: Write→Load→Write is byte-identical (the
// seal is canonical), the reconstructed verdicts drive a sharded mine
// to the bit-identical single-process answer through the manifest's
// own Owner, and the run reports the replayed level-1 evaluations.
func TestManifestSealedRoundTrip(t *testing.T) {
	ctx := context.Background()
	for mode, p := range testParams() {
		t.Run(mode, func(t *testing.T) {
			g := testGraph(t, 2401)
			const n = 2
			m, err := BuildManifestSealed(ctx, g, p, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.Format != ManifestFormatV3 {
				t.Fatalf("sealed manifest format %q, want %q", m.Format, ManifestFormatV3)
			}
			if m.Level1 == nil || len(m.Level1.Verdicts) != len(m.Roots) {
				t.Fatalf("sealed manifest carries %d verdicts for %d roots", len(m.Level1.Verdicts), len(m.Roots))
			}
			if want := p.Level1Fingerprint(); m.Level1.ParamsKey != want {
				t.Fatalf("sealed params key %q, want %q", m.Level1.ParamsKey, want)
			}

			dir := t.TempDir()
			p1 := filepath.Join(dir, "m1.json")
			p2 := filepath.Join(dir, "m2.json")
			if err := WriteManifest(m, p1); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadManifest(p1)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteManifest(loaded, p2); err != nil {
				t.Fatal(err)
			}
			b1, err := os.ReadFile(p1)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := os.ReadFile(p2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("Write→Load→Write is not byte-identical")
			}

			verdicts, err := loaded.Level1Verdicts(g)
			if err != nil {
				t.Fatal(err)
			}
			if verdicts == nil || verdicts.Len() != len(m.Roots) {
				t.Fatalf("reconstructed %v verdicts, want %d", verdicts, len(m.Roots))
			}

			want, err := core.Mine(ctx, g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*core.Result, n)
			for k := 0; k < n; k++ {
				pk := p
				pk.ShardOwner = loaded.Owner(k)
				pk.Level1Verdicts = verdicts
				if parts[k], err = core.Mine(ctx, g, pk, nil); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := Merge(parts...)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, mode, merged, want)
			requireEqualStats(t, mode, merged.Stats, want.Stats)
			if merged.Stats.ReusedVerdicts == 0 {
				t.Fatal("sharded mine with sealed verdicts replayed nothing")
			}
		})
	}
}

// TestManifestV1Rejected pins the retirement of the older formats: a
// manifest marked scpm-manifest/v1 (plan only) or scpm-manifest/v2
// (verdicts with coverage certificates), even with a valid checksum,
// fails to load with an error naming its format.
func TestManifestV1Rejected(t *testing.T) {
	g := testGraph(t, 2402)
	m, err := buildManifest(g, testParams()["exact"].SigmaMin, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"scpm-manifest/v1", "scpm-manifest/v2"} {
		m.Format = format
		path := filepath.Join(t.TempDir(), "old.json")
		if err := WriteManifest(m, path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), format) {
			t.Fatalf("LoadManifest accepted a %s manifest (err=%v)", format, err)
		}
	}
}

// TestManifestCorruptedSealRejected covers the manifest integrity
// guards: a bit flipped inside the sealed payload fails the checksum,
// and the structural invariants (payload present, verdict count, plan
// bounds) are each enforced even under a recomputed checksum.
func TestManifestCorruptedSealRejected(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 2403)
	p := testParams()["exact"]
	m, err := BuildManifestSealed(ctx, g, p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v3.json")
	if err := WriteManifest(m, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `"params_key": "`, `"params_key": "X`, 1)
	if tampered == string(b) {
		t.Fatal("no params_key found to tamper with")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("LoadManifest accepted a corrupted seal (err=%v)", err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"v3 without payload", func(c *Manifest) { c.Level1 = nil }},
		{"verdict count mismatch", func(c *Manifest) {
			c.Level1 = &SealedLevel1{ParamsKey: m.Level1.ParamsKey, Verdicts: m.Level1.Verdicts[:len(m.Level1.Verdicts)-1]}
		}},
		{"sigma_min 0", func(c *Manifest) { c.SigmaMin = 0 }},
		{"too many shards", func(c *Manifest) { c.Shards = maxShards + 1 }},
		{"root id out of range", func(c *Manifest) {
			c.Roots = append([]RootAssignment(nil), c.Roots...)
			c.Roots[0].ID = int32(c.Attributes)
		}},
	} {
		c := *m
		tc.mutate(&c)
		c.Seal()
		if err := c.Verify(); err == nil {
			t.Errorf("%s: Verify accepted it", tc.name)
		}
	}
}

// TestSealRejectsForeignVerdicts pins sealLevel1's version guard.
func TestSealRejectsForeignVerdicts(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 2404)
	p := testParams()["exact"]
	m, err := buildManifest(g, p.SigmaMin, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.ComputeLevel1(ctx, g, p)
	if err != nil {
		t.Fatal(err)
	}
	m.GraphVersion++
	if err := m.sealLevel1(v); err == nil {
		t.Fatal("sealLevel1 accepted verdicts from another graph version")
	}
	m.GraphVersion--
	if err := m.sealLevel1(v); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("freshly sealed manifest fails verification: %v", err)
	}
}

func TestManifestErrors(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 1237)
	p := testParams()["exact"]
	if _, err := BuildManifestSealed(ctx, g, p, 2, []string{"only-one"}); err == nil {
		t.Error("BuildManifestSealed accepted 1 snapshot path for 2 shards")
	}
	p0 := p
	p0.SigmaMin = 0
	if _, err := BuildManifestSealed(ctx, g, p0, 2, nil); err == nil {
		t.Error("BuildManifestSealed accepted sigmaMin=0")
	}
	m, err := BuildManifestSealed(ctx, g, p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Format = "bogus/v9"
	if err := m.Verify(); err == nil {
		t.Error("Verify accepted a bogus format marker")
	}
}

// FuzzManifest feeds arbitrary bytes to the manifest decoder. Whatever
// it accepts must be usable: Verify, Route, Owner and Level1Verdicts on
// the paper example graph return without panicking. Each input that
// parses as JSON is also tried resealed — a hand edit needs only a
// recomputed checksum to load — so the checks behind the checksum see
// fuzzed values too.
func FuzzManifest(f *testing.F) {
	g := graph.PaperExample()
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		var m Manifest
		if json.Unmarshal(data, &m) == nil {
			m.Seal()
			resealed, err := json.Marshal(&m)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, resealed)
		}
		for _, b := range inputs {
			m, err := decodeManifest(b)
			if err != nil {
				continue
			}
			if m.Format != ManifestFormatV3 {
				t.Fatalf("decoded a %q manifest", m.Format)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("decoded manifest fails Verify: %v", err)
			}
			for _, attrs := range [][]string{nil, {"A"}, {"B", "A"}, {"C", "no-such-attr"}} {
				if k := m.Route(attrs); k < 0 || k >= m.Shards {
					t.Fatalf("Route(%v) = %d of %d shards", attrs, k, m.Shards)
				}
			}
			for _, k := range []int{0, m.Shards - 1} {
				owns := m.Owner(k)
				for a := int32(0); a < int32(g.NumAttributes()); a++ {
					owns(g, a)
				}
			}
			_, _ = m.Level1Verdicts(g) // an error is a fine answer; only a panic fails
		}
	})
}
