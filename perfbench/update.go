package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/server"
)

// firstUpdateBoots is how many fresh boots measure the first update.
const firstUpdateBoots = 3

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// updateEvery spaces the updates of update-dblp wider than one remine
// (≈1 s on dblp@0.2 with index rebuild and write-behind), so each
// update gets a remine of its own.
const updateEvery = 2500 * time.Millisecond

// updateOps draws n single-op updates that cycle add_edge,
// remove_edge, set_attr, unset_attr over seeded vertex pairs and
// vertex attributes, so every four ops restore the graph's content.
func updateOps(g *graph.Graph, seed int64, n int) []server.UpdateOp {
	rng := rand.New(rand.NewSource(seed ^ 0x0bd))
	nv := int32(g.NumVertices())
	var ops []server.UpdateOp
	for len(ops) < n {
		u, v := rng.Int31n(nv), rng.Int31n(nv)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		x := rng.Int31n(nv)
		a := rng.Int31n(int32(g.NumAttributes()))
		has := false
		for _, y := range g.VertexAttrs(x) {
			has = has || y == a
		}
		if has {
			continue
		}
		un, vn, xn, an := g.VertexName(u), g.VertexName(v), g.VertexName(x), g.AttrName(a)
		ops = append(ops,
			server.UpdateOp{Op: "add_edge", U: un, V: vn},
			server.UpdateOp{Op: "remove_edge", U: un, V: vn},
			server.UpdateOp{Op: "set_attr", Vertex: xn, Attr: an},
			server.UpdateOp{Op: "unset_attr", Vertex: xn, Attr: an})
	}
	return ops[:n]
}

// applyOp applies one op to g the way the server does.
func applyOp(g *graph.Graph, op server.UpdateOp) (*graph.Graph, *graph.ChangeSet, error) {
	d := g.NewDelta()
	var err error
	switch op.Op {
	case "add_edge":
		err = d.AddEdge(op.U, op.V)
	case "remove_edge":
		err = d.RemoveEdge(op.U, op.V)
	case "set_attr":
		err = d.SetAttr(op.Vertex, op.Attr)
	case "unset_attr":
		err = d.UnsetAttr(op.Vertex, op.Attr)
	default:
		err = fmt.Errorf("unknown op %q", op.Op)
	}
	if err != nil {
		return nil, nil, err
	}
	return g.Apply(d)
}

// postUpdate sends one op and waits until /version serves it, returning
// the time from the 202 to visibility.
func postUpdate(c *child, op server.UpdateOp) (time.Duration, error) {
	line, _ := json.Marshal(op)
	resp, err := http.Post(c.base+"/updates", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
	if err != nil {
		return 0, err
	}
	var acc struct {
		DataVersion uint64 `json:"data_version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /updates: status %d: %v", resp.StatusCode, err)
	}
	accepted := time.Now()
	for time.Since(accepted) < 60*time.Second {
		body, err := c.get("/version")
		if err != nil {
			return 0, err
		}
		var v struct {
			Served uint64 `json:"served_version"`
			Err    string `json:"last_remine_error"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, err
		}
		if v.Err != "" {
			return 0, fmt.Errorf("remine failed: %s", v.Err)
		}
		if v.Served >= acc.DataVersion {
			return time.Since(accepted), nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("update to v%d not visible after 60s", acc.DataVersion)
}

// runUpdate is update-dblp.
func runUpdate(ctx context.Context, b *bench) error {
	st, err := repeatSetup(b, func() (serveState, error) { return setupServing(ctx, b, false) })
	if err != nil {
		return err
	}
	b.set("mine_wall_ms", median(b.setupMines), "ms")
	shape(b, st.d, st.res)
	tw, err := openTwin(b, st.d, st.snap)
	if err != nil {
		return err
	}
	defer tw.boot.Close()
	conns := runtime.NumCPU()
	nUpdates := 1 + int(b.seconds/updateEvery)
	ops := updateOps(tw.boot.Graph, b.seed, nUpdates)

	// The first update after a fresh mmap boot, with no reads in flight,
	// so its server CPU is the full remine's; three boots, each from its
	// own copy of the snapshot (write-behind rewrites it). The last
	// server stays up for the read phase.
	var (
		srv               *child
		firstCPU, firstAt []float64
	)
	for i := 0; i < firstUpdateBoots; i++ {
		if srv != nil {
			srv.stop()
		}
		snap := filepath.Join(b.workDir, fmt.Sprintf("update%d.scpmidx", i))
		if err := copyFile(st.snap, snap); err != nil {
			return err
		}
		if srv, err = spawn(b, "scpm-serve", serveArgs(st.d, snap)...); err != nil {
			return err
		}
		if _, err := srv.waitFor("/sets?k=10", tw.topSets, 60*time.Second); err != nil {
			return err
		}
		c0, err := srv.cpu()
		if err != nil {
			return err
		}
		first, err := postUpdate(srv, ops[0])
		b.check(err == nil, "first update after boot %d: %v", i, err)
		if err != nil {
			return err
		}
		c1, err := srv.cpu()
		if err != nil {
			return err
		}
		firstCPU = append(firstCPU, (c1-c0)*1e3)
		firstAt = append(firstAt, first.Seconds())
	}
	b.set("alt_cpu_ms", median(firstCPU), "ms")
	b.set("e2e.first_update_visible_s", median(firstAt), "s")

	before, err := srv.scrape()
	if err != nil {
		return err
	}
	split := cpuSplit{}
	var waitProf func() error
	if b.traced {
		waitProf = srv.profileAsync(int(b.seconds.Seconds()), b.workDir, split)
	}
	// Reads at the nominal rate while the updates arrive.
	visible := make(chan []float64, 1)
	go func() {
		var vs []float64
		start := time.Now()
		for i, op := range ops[1:] {
			if d := time.Until(start.Add(time.Duration(i)*updateEvery + 200*time.Millisecond)); d > 0 {
				time.Sleep(d)
			}
			dt, err := postUpdate(srv, op)
			b.check(err == nil, "update %d (%s): %v", i+1, op.Op, err)
			if err == nil {
				vs = append(vs, ms(dt))
			}
		}
		visible <- vs
	}()
	c0, err := srv.cpu()
	if err != nil {
		return err
	}
	out, ps, err := runPhase(b, "reads", srv.base, tw.pools, b.seed*1000+3, nominalRate, b.seconds, conns, everyNth(0))
	vs := <-visible
	if err != nil {
		return err
	}
	c1, err := srv.cpu()
	if err != nil {
		return err
	}
	b.set("cpu_ms", (c1-c0)/float64(ps.sent)*1e3, "ms")
	checkStatuses(b, "reads", out)
	fmt.Fprintf(b.out, "updates: %d visible, median %.1fms\n", len(vs), median(vs))
	b.set("e2e.update_visible_s", median(vs)/1e3, "s")
	b.set("e2e.query_p50_ms", ps.p50, "ms")
	b.set("e2e.query_p99_ms", ps.p99, "ms")
	b.set("e2e.saturated_qps", 1e3/saturate(b, "saturation", srv, tw.pools, b.seed*1000+4, conns), "1/s")
	rss, err := srv.hwm()
	if err != nil {
		return err
	}
	b.set("e2e.server_rss_bytes", rss, "bytes")
	live, err := srv.liveHeap()
	if err != nil {
		return err
	}
	b.set("memory_bytes", live, "bytes")
	if b.traced {
		if err := waitProf(); err != nil {
			return err
		}
		setCPU(b, split)
		after, err := srv.scrape()
		if err != nil {
			return err
		}
		d := promDelta(before, after)
		setServerMetrics(b, d)
		if n := d.sum("scpm_remine_duration_seconds_count"); n > 0 {
			b.set("server.remine_s", d.sum("scpm_remine_duration_seconds_sum")/n, "s")
			b.set("server.updates_per_remine", d.sum("scpm_updates_accepted_total")/n, "ratio")
		}
		setLoadgen(b, out, ps, conns)
	}

	// The served state must equal a fresh Mine of the final graph.
	g := tw.boot.Graph
	var dirty []float64
	for _, op := range ops {
		sp := b.tr.start("graph.Apply")
		ng, cs, err := applyOp(g, op)
		sp.end()
		if err != nil {
			return err
		}
		g = ng
		dirty = append(dirty, float64(cs.DirtyAttrs.Count()))
	}
	p := st.d.params(runtime.NumCPU())
	fresh, err := mine(ctx, b, g, p, "core.Mine.final")
	if err != nil {
		return err
	}
	x := index.Build(fresh, g)
	for _, path := range []string{"/sets?format=ndjson", "/patterns?format=ndjson"} {
		served, err := srv.get(path)
		if err != nil {
			return err
		}
		h, err := newHandler(x, g, p, nil)
		if err != nil {
			return err
		}
		want := bodyOf(h, path)
		b.check(sha256.Sum256(served) == sha256.Sum256(want), "final %s: served state differs from a fresh Mine of the final graph", path)
	}
	if !b.traced {
		return nil
	}
	b.set("graph.apply_ms", median(b.tr.durations("graph.Apply"))*1e3, "ms")
	b.set("graph.dirty_attrs", median(dirty), "count")
	if err := remineReplay(ctx, b, tw, st, ops); err != nil {
		return err
	}
	return probe(ctx, b, st.d, st.res, p)
}

// remineReplay repeats the server's remines in-process: the first from
// a snapshot's lattice-less result (a full remine), the next ones
// chained incrementally, each followed by an index rebuild.
func remineReplay(ctx context.Context, b *bench, tw *twin, st serveState, ops []server.UpdateOp) error {
	p := st.d.params(runtime.NumCPU())
	p.RecordLattice = true
	x := tw.boot.Index
	prev := &core.Result{Sets: x.Sets(), Patterns: x.Patterns(), Stats: x.MiningStats()}
	g := tw.boot.Graph
	var remines []float64
	var last core.Stats
	for i, op := range ops[:min(len(ops), 4)] {
		ng, cs, err := applyOp(g, op)
		if err != nil {
			return err
		}
		sp := b.tr.start("core.Remine")
		t0 := time.Now()
		res, err := core.Remine(ctx, ng, p, prev, cs, nil)
		secs := time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return err
		}
		if i == 0 {
			b.set("core.first_remine_s", secs, "s")
		} else {
			remines = append(remines, secs)
			last = res.Stats
		}
		sp = b.tr.start("index.Rebuild")
		x = x.Rebuild(res, ng)
		sp.end()
		g, prev = ng, res
	}
	b.set("core.remine_s", median(remines), "s")
	b.set("core.reused_sets", float64(last.ReusedSets), "count")
	b.set("core.recomputed_sets", float64(last.RecomputedSets), "count")
	b.set("index.rebuild_s", median(b.tr.durations("index.Rebuild")), "s")
	return nil
}

// newHandler is the server's handler over an index with the run's
// mining parameters, its instruments on reg (nil: a private registry).
func newHandler(x *index.Index, g *graph.Graph, p core.Params, reg *obs.Registry) (http.Handler, error) {
	return server.New(server.Config{Index: x, Graph: g, Estimator: p.NewEstimator(), Model: p.NewModel(g), Metrics: reg})
}

// bodyOf answers one GET in-process.
func bodyOf(h http.Handler, path string) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}
