package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/shard"
	"github.com/scpm/scpm/internal/snapshot"
)

// nominalRate is the open-loop query rate (req/s) of serve-dblp and
// update-dblp; ladderStep the factor the max_qps ladder steps by;
// limitP99MS the latency limit a ladder rate must meet. The limit is
// 100 ms rather than 50: on a 2-vCPU box one sets_ranked request alone
// takes 25–45 ms of service, so 50 ms leaves no room for any queueing.
// The closed-loop capacity runs rounds of saturationRound requests,
// at least saturationRounds of them and for at least saturationBudget.
const (
	nominalRate      = 100.0
	ladderStep       = 1.25
	limitP99MS       = 100.0
	saturationRound  = 300
	saturationRounds = 5
	saturationBudget = 2 * time.Second
)

// child is one server process the benchmark started.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

var (
	childMu  sync.Mutex
	children []*child
)

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts a binary listening on a fresh loopback port. Its output
// goes to a log file in the run directory.
func spawn(b *bench, bin string, args ...string) (*child, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(b.workDir, fmt.Sprintf("%s-%s.log", bin, strings.ReplaceAll(addr, ":", "_"))))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.binDir, bin), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is irrelevant once stopped
		logf.Close()
		close(c.done)
	}()
	childMu.Lock()
	children = append(children, c)
	childMu.Unlock()
	return c, nil
}

// stop terminates the process and waits for it.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck
		<-c.done
	}
}

// stopChildren stops every process the run started.
func stopChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for _, c := range children {
		c.stop()
	}
	children = nil
}

// waitFor polls path until it answers 200 with the wanted body (nil:
// any body), returning the time of that answer.
func (c *child) waitFor(path string, want []byte, timeout time.Duration) (time.Time, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return time.Time{}, fmt.Errorf("%s exited during boot", c.cmd.Path)
		default:
		}
		if resp, err := client.Get(c.base + path); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if want == nil || bytes.Equal(body, want) {
					return time.Now(), nil
				}
				return time.Time{}, fmt.Errorf("%s%s: first answer differs from the in-process handler", c.base, path)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("%s%s not ready after %s", c.base, path, timeout)
}

// get fetches one path.
func (c *child) get(path string) ([]byte, error) {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// scrape reads the process's /metrics.
func (c *child) scrape() (promSamples, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body)), nil
}

// hwm returns the process's peak resident set size (VmHWM) in bytes.
func (c *child) hwm() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// liveHeap forces a collection in the process (the pprof heap endpoint
// with gc=1) and returns its Go heap in use afterwards, from /metrics.
func (c *child) liveHeap() (float64, error) {
	if _, err := c.get("/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	m, err := c.scrape()
	if err != nil {
		return 0, err
	}
	return m.sum("scpm_go_heap_alloc_bytes"), nil
}

// cpu returns the process's user+system CPU time in seconds, from
// /proc/<pid>/stat (clock-tick resolution).
func (c *child) cpu() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", c.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", c.cmd.Process.Pid)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// cpuOf sums the CPU time of several processes.
func cpuOf(cs ...*child) (float64, error) {
	t := 0.0
	for _, c := range cs {
		v, err := c.cpu()
		if err != nil {
			return 0, err
		}
		t += v
	}
	return t, nil
}

// profileAsync fetches a CPU profile of the process over the next
// seconds; the returned function waits for it and bills it into split
// (the profile passes through a temporary file in dir).
func (c *child) profileAsync(seconds int, dir string, split cpuSplit) func() error {
	ch := make(chan error, 1)
	go func() {
		body, err := c.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", seconds))
		if err == nil {
			err = parseCPUProfile(body, dir, split)
		}
		ch <- err
	}()
	return func() error { return <-ch }
}

// serveArgs are scpm-serve's flags for a dblp snapshot.
func serveArgs(d *dataset, snap string, extra ...string) []string {
	p := d.params(runtime.NumCPU())
	return append([]string{
		"-snapshot", snap, "-snapshot-mode", "mmap", "-quiet",
		"-sigma", strconv.Itoa(p.SigmaMin), "-gamma", fmt.Sprint(p.Gamma), "-minsize", strconv.Itoa(p.MinSize),
		"-minattrs", strconv.Itoa(p.MinAttrs), "-k", strconv.Itoa(p.K),
		"-eps", fmt.Sprint(p.EpsMin), "-delta", fmt.Sprint(p.DeltaMin),
		"-parallel", strconv.Itoa(p.Parallelism),
	}, extra...)
}

// twin is the in-process copy of what a server serves: the same
// snapshot opened the same way, behind the same handler.
type twin struct {
	boot    *snapshot.Boot
	h       http.Handler
	pools   *queryPools
	topSets []byte // the expected /sets?k=10 body
}

func openTwin(b *bench, d *dataset, path string) (*twin, error) {
	sp := b.tr.start("snapshot.Open")
	boot, err := snapshot.Open(path, snapshot.Options{Mode: snapshot.ModeMmap})
	sp.end()
	if err != nil {
		return nil, err
	}
	p := d.params(runtime.NumCPU())
	h, err := newHandler(boot.Index, boot.Graph, p, nil)
	if err != nil {
		return nil, err
	}
	return &twin{boot: boot, h: h, pools: newPools(boot.Index, boot.Graph, p, b.seed), topSets: bodyOf(h, "/sets?k=10")}, nil
}

// serveState is what serve-dblp's set-up leaves behind.
type serveState struct {
	d        *dataset
	res      *core.Result
	snap     string
	manifest string
	shards   []string
}

// setupServing generates dblp, mines it at nproc, builds the index and
// writes the v3 snapshot a server boots from; with shards it also plans
// a sealed 2-shard manifest, mines each shard and writes its snapshot,
// and checks that the merged shards equal the single result.
func setupServing(ctx context.Context, b *bench, shards bool) (serveState, error) {
	d, err := generate(b, "dblp")
	if err != nil {
		return serveState{}, err
	}
	p := d.params(runtime.NumCPU())
	clock, err := startStealClock()
	if err != nil {
		return serveState{}, err
	}
	t0 := time.Now()
	res, err := mine(ctx, b, d.g, p, "core.Mine.setup")
	wall := ms(time.Since(t0))
	if err != nil {
		return serveState{}, err
	}
	share, err := clock.share()
	if err != nil {
		return serveState{}, err
	}
	b.setupMines = append(b.setupMines, netOfSteal(wall, share))
	st := serveState{d: d, res: res, snap: filepath.Join(b.workDir, "dblp.scpmidx")}
	if err := writeSnapshot(b, st.snap, d, res); err != nil {
		return serveState{}, err
	}
	if !shards {
		return st, nil
	}
	st.manifest = filepath.Join(b.workDir, "manifest.json")
	st.shards = []string{filepath.Join(b.workDir, "shard0.scpmidx"), filepath.Join(b.workDir, "shard1.scpmidx")}
	sp := b.tr.start("shard.Plan")
	man, err := shard.BuildManifestSealed(ctx, d.g, p, 2, st.shards)
	if err == nil {
		err = shard.WriteManifest(man, st.manifest)
	}
	sp.end()
	if err != nil {
		return serveState{}, err
	}
	var parts []*core.Result
	for k := range st.shards {
		miner, err := scpm.NewMiner(scpm.WithParams(p), scpm.WithShardManifest(man, k))
		if err != nil {
			return serveState{}, err
		}
		sp := b.tr.start("shard.Mine")
		part, err := miner.Mine(ctx, d.g)
		sp.end()
		if err != nil {
			return serveState{}, err
		}
		parts = append(parts, part)
		if err := writeSnapshot(b, st.shards[k], d, part); err != nil {
			return serveState{}, err
		}
	}
	sp = b.tr.start("shard.Merge")
	merged, err := shard.Merge(parts...)
	sp.end()
	if err != nil {
		return serveState{}, err
	}
	b.check(digest(merged) == digest(res), "merged 2-shard result differs from the single-process result")
	return st, nil
}

// writeSnapshot builds the index of res and writes it with the graph as
// a v3 snapshot.
func writeSnapshot(b *bench, path string, d *dataset, res *core.Result) error {
	sp := b.tr.start("index.Build")
	x := index.Build(res, d.g)
	sp.end()
	sp = b.tr.start("snapshot.Write")
	err := snapshot.Write(path, d.g, x)
	sp.end()
	return err
}

// runServe is serve-dblp.
func runServe(ctx context.Context, b *bench) error {
	st, err := repeatSetup(b, func() (serveState, error) { return setupServing(ctx, b, true) })
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
	args := serveArgs(st.d, st.snap)

	// Cold boot: spawn → first correct /sets?k=10, several times; the
	// last server stays up for the query phases.
	var boots []float64
	var direct *child
	for i := 0; i < 5; i++ {
		if direct != nil {
			direct.stop()
		}
		t0 := time.Now()
		if direct, err = spawn(b, "scpm-serve", args...); err != nil {
			return err
		}
		at, err := direct.waitFor("/sets?k=10", tw.topSets, 60*time.Second)
		b.check(err == nil, "boot %d: %v", i, err)
		if err != nil {
			return err
		}
		boots = append(boots, at.Sub(t0).Seconds())
	}
	b.set("e2e.boot_s", median(boots), "s")

	before, err := direct.scrape()
	if err != nil {
		return err
	}
	phase := b.seconds / 2
	seed := b.seed*1000 + 1
	c0, err := direct.cpu()
	if err != nil {
		return err
	}
	out, ps, err := runPhase(b, "direct", direct.base, tw.pools, seed, nominalRate, phase, conns, everyNth(8))
	if err != nil {
		return err
	}
	c1, err := direct.cpu()
	if err != nil {
		return err
	}
	b.set("cpu_ms", (c1-c0)/float64(ps.sent)*1e3, "ms")
	checkStatuses(b, "direct", out)
	handlerMS, serviceMS := checkBodies(b, "direct", out, tw.h)
	b.set("e2e.query_p50_ms", ps.p50, "ms")
	b.set("e2e.query_p99_ms", ps.p99, "ms")
	if b.traced {
		// A second direct phase with the server profiled: its p50 minus
		// the untraced one is the tracing overhead.
		split := cpuSplit{}
		wait := direct.profileAsync(int(phase.Seconds()), b.workDir, split)
		out2, ps2, err := runPhase(b, "direct-traced", direct.base, tw.pools, seed+1, nominalRate, phase, conns, everyNth(0))
		if err != nil {
			return err
		}
		checkStatuses(b, "direct-traced", out2)
		if err := wait(); err != nil {
			return err
		}
		setCPU(b, split)
		b.set("trace.overhead_ms", ps2.p50-ps.p50, "ms")
		after, err := direct.scrape()
		if err != nil {
			return err
		}
		setServerMetrics(b, promDelta(before, after))
		b.set("server.http_overhead_ms", serviceMS-handlerMS, "ms")
		setLoadgen(b, out, ps, conns)
	}
	rss, err := direct.hwm()
	if err != nil {
		return err
	}
	b.set("memory_bytes", rss, "bytes")
	b.set("e2e.server_rss_bytes", rss, "bytes")

	b.set("e2e.saturated_qps", 1e3/saturate(b, "saturation", direct, tw.pools, seed+3, conns), "1/s")

	// The same mix through scpm-gateway in front of two shard replicas.
	var (
		urls     []string
		replicas []*child
	)
	for k, snap := range st.shards {
		rep, err := spawn(b, "scpm-serve", serveArgs(st.d, snap, "-manifest", st.manifest, "-shard", fmt.Sprintf("%d/2", k))...)
		if err != nil {
			return err
		}
		if _, err := rep.waitFor("/healthz", nil, 60*time.Second); err != nil {
			return err
		}
		urls = append(urls, rep.base)
		replicas = append(replicas, rep)
	}
	gw, err := spawn(b, "scpm-gateway", "-manifest", st.manifest, "-shards", strings.Join(urls, ","), "-quiet")
	if err != nil {
		return err
	}
	if _, err := gw.waitFor("/sets?k=10", tw.topSets, 60*time.Second); err != nil {
		return err
	}
	gwBefore, err := gw.scrape()
	if err != nil {
		return err
	}
	fleet := append([]*child{gw}, replicas...)
	g0, err := cpuOf(fleet...)
	if err != nil {
		return err
	}
	gout, gps, err := runPhase(b, "gateway", gw.base, tw.pools, seed+2, nominalRate, phase, conns, everyNth(8))
	if err != nil {
		return err
	}
	g1, err := cpuOf(fleet...)
	if err != nil {
		return err
	}
	b.set("alt_cpu_ms", (g1-g0)/float64(gps.sent)*1e3, "ms")
	checkStatuses(b, "gateway", gout)
	for _, o := range gout {
		if o.body == nil {
			continue
		}
		want, err := direct.get(o.req.path)
		b.check(err == nil && bytes.Equal(normalize(o.body), normalize(want)), "gateway %s: body differs from the direct server", o.req.path)
	}
	b.set("e2e.gateway_query_p50_ms", gps.p50, "ms")
	b.set("e2e.gateway_query_p99_ms", gps.p99, "ms")
	if !b.traced {
		return nil
	}
	gwAfter, err := gw.scrape()
	if err != nil {
		return err
	}
	setGatewayMetrics(b, promDelta(gwBefore, gwAfter))
	b.set("e2e.max_qps", maxQPS(b, direct, tw.pools, conns), "1/s")
	setShardSpans(b)
	return probe(ctx, b, st.d, st.res, st.d.params(runtime.NumCPU()))
}

// saturate measures the capacity of a server without a latency limit:
// rounds of saturationRound requests, each a fresh schedule sent back
// to back over conns connections (a closed loop), until
// saturationBudget has passed and at least saturationRounds rounds
// ran. It checks every status and returns the median round's wall time
// per request in ms.
func saturate(b *bench, label string, c *child, q *queryPools, seed int64, conns int) float64 {
	var perReq []float64
	runtime.GC()
	start := time.Now()
	for r := 0; r < saturationRounds || time.Since(start) < saturationBudget; r++ {
		sched := q.schedule(seed+int64(r)*104729, nominalRate, saturationRound*time.Second/nominalRate)
		for i := range sched {
			sched[i].due = 0
		}
		t0 := time.Now()
		out := openLoop(c.base, sched, conns, everyNth(0))
		perReq = append(perReq, ms(time.Since(t0))/float64(len(out)))
		checkStatuses(b, label, out)
	}
	fmt.Fprintf(b.out, "%s: %d rounds of %d requests over %d conns: median %.3f ms/request\n",
		label, len(perReq), saturationRound, conns, median(perReq))
	return median(perReq)
}

// everyNth keeps the body of every nth request (0: none).
func everyNth(n int) func(i int) bool {
	return func(i int) bool { return n > 0 && i%n == 0 }
}

// checkBodies compares the kept bodies against the in-process handler's
// answers to the same paths, ε answers without their source field
// (cache state differs between processes). It returns the mean handler
// time and the mean HTTP service time of the checked requests.
func checkBodies(b *bench, label string, out []outcome, h http.Handler) (handlerMS, serviceMS float64) {
	var hs, ss []float64
	for _, o := range out {
		if o.body == nil {
			continue
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, o.req.path, nil))
		hs = append(hs, ms(time.Since(t0)))
		ss = append(ss, ms(o.end.Sub(o.start)))
		b.check(rec.Code == http.StatusOK && bytes.Equal(normalize(o.body), normalize(rec.Body.Bytes())),
			"%s %s: HTTP body differs from the in-process handler", label, o.req.path)
	}
	return mean(hs), mean(ss)
}

// setServerMetrics records the ε cache counters of a /metrics delta.
func setServerMetrics(b *bench, d promSamples) {
	hits := d.sum("scpm_epsilon_cache_hits_total")
	misses := d.sum("scpm_epsilon_cache_misses_total")
	if hits+misses > 0 {
		b.set("server.eps_cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	b.set("server.eps_cache_evictions", d.sum("scpm_epsilon_cache_evictions_total"), "count")
}

// setLoadgen records the generator's own numbers for a phase.
func setLoadgen(b *bench, out []outcome, ps phaseStats, conns int) {
	b.set("loadgen.late_ms_p99", ps.lateP99, "ms")
	b.set("loadgen.sent", float64(len(out)), "count")
	b.set("loadgen.conns", float64(conns), "count")
}

// setGatewayMetrics records the gateway's scatter numbers: mean shard
// subrequest time, and gateway overhead as the mean gateway request
// time minus the slowest shard's mean subrequest time.
func setGatewayMetrics(b *bench, d promSamples) {
	const h = "scpm_gateway_shard_request_duration_seconds"
	sum, count := d.sum(h+"_sum"), d.sum(h+"_count")
	slowest := 0.0
	for k := 0; k < 2; k++ {
		label := fmt.Sprintf(`shard="%d"`, k)
		if c := d.sum(h+"_count", label); c > 0 {
			slowest = max(slowest, d.sum(h+"_sum", label)/c)
		}
	}
	if count > 0 {
		b.set("gateway.shard_request_ms", sum/count*1e3, "ms")
	}
	const g = "scpm_gateway_http_request_duration_seconds"
	if c := d.sum(g + "_count"); c > 0 {
		b.set("gateway.overhead_ms", (d.sum(g+"_sum")/c-slowest)*1e3, "ms")
	}
	b.set("gateway.retries", d.sum("scpm_gateway_retry_attempts_total"), "count")
	b.set("gateway.partial_responses", d.sum("scpm_gateway_partial_responses_total"), "count")
}

// setShardSpans records the shard set-up spans: plan and merge as the
// median over the set-ups, the slowest shard mine of the last one.
func setShardSpans(b *bench) {
	mines := b.tr.durations("shard.Mine")
	b.set("shard.plan_s", median(b.tr.durations("shard.Plan")), "s")
	b.set("shard.mine_max_s", quantile(mines[max(0, len(mines)-2):], 1), "s")
	b.set("shard.merge_s", median(b.tr.durations("shard.Merge")), "s")
}

// maxQPS finds the highest open-loop rate that meets the p99 limit with
// no failed request: from the nominal rate it steps by ladderStep, up
// while steps pass or down until one does, then tries once halfway
// (geometrically) above the best passing rate.
func maxQPS(b *bench, c *child, q *queryPools, conns int) float64 {
	const step = 2 * time.Second
	pass := func(rate float64) bool {
		out := openLoop(c.base, q.schedule(b.seed*1000+int64(rate), rate, step), conns, everyNth(0))
		st := summarize(out)
		ok := st.failed == 0 && st.p99 <= limitP99MS
		fmt.Fprintf(b.out, "ladder %.1f/s: p99=%.2fms failed=%d pass=%v\n", rate, st.p99, st.failed, ok)
		return ok
	}
	best, rate := 0.0, nominalRate
	if pass(rate) {
		for best = rate; best < 20000 && pass(best*ladderStep); best *= ladderStep {
		}
	} else {
		for rate /= ladderStep; rate > 1 && !pass(rate); rate /= ladderStep {
		}
		best = rate
	}
	if mid := best * math.Sqrt(ladderStep); pass(mid) {
		best = mid
	}
	return best
}
