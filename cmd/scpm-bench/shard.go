package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/experiments"
	"github.com/scpm/scpm/internal/gateway"
	"github.com/scpm/scpm/internal/shard"
)

// shardMineRun is one (dataset, shard count) cell of the shard
// experiment. Each shard's wall is measured sequentially on an
// otherwise idle process with the sealed level-1 verdicts injected, so
// the recorded wall models the critical path of a real deployment —
// one coordinator sealing verdicts once, n machines mining their
// partitions concurrently, one merge:
//
//	wall_ms = verdict_ms + max(shard_walls_ms) + merge_ms
//
// (Timing shard.MineAll directly would interleave all n shards'
// goroutines on this benchmark's single CPU and measure their SUM, a
// methodology under which sharding can never win wall time.)
type shardMineRun struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Shards  int     `json:"shards"`
	// VerdictMS times core.ComputeLevel1 — the one-shot sealed level-1
	// precomputation every shard replays instead of re-searching.
	VerdictMS float64 `json:"verdict_ms"`
	// ShardWallsMS are the per-shard mining walls (sequential, verdicts
	// injected); MergeMS is the deterministic k-way merge of the slices.
	ShardWallsMS []float64 `json:"shard_walls_ms"`
	MergeMS      float64   `json:"merge_ms"`
	// WallMS is the critical-path wall above; SingleMS is the
	// single-process core.Mine baseline on the same dataset and
	// parameters; Speedup is SingleMS/WallMS.
	WallMS   float64 `json:"wall_ms"`
	SingleMS float64 `json:"single_ms"`
	Speedup  float64 `json:"speedup"`
	Sets     int     `json:"sets"`
	Patterns int     `json:"patterns"`
	// ReusedVerdicts is the merged count of level-1 evaluations the
	// shards replayed from the sealed verdicts.
	ReusedVerdicts int64 `json:"reused_verdicts"`
	// MergeVerified reports that the merged sharded result was checked
	// set-for-set (keys and ε values) against the single-process run.
	MergeVerified bool `json:"merge_verified"`
}

// shardGatewayEndpoint compares one endpoint's throughput through the
// scatter-gather gateway (which fans out over loopback HTTP to the
// replicas) against the same query on a direct in-process server.
type shardGatewayEndpoint struct {
	Name       string  `json:"name"`
	Path       string  `json:"path"`
	Requests   int     `json:"requests"`
	GatewayQPS float64 `json:"gateway_qps"`
	DirectQPS  float64 `json:"direct_qps"`
	// Overhead is DirectQPS/GatewayQPS — the fan-out cost factor.
	Overhead float64 `json:"overhead"`
}

// shardGatewayReport is the serving half of BENCH_shard.json: gateway
// throughput fronting Shards httptest replicas on the quickstart
// dataset versus a direct single-process server.
type shardGatewayReport struct {
	Shards     int                    `json:"shards"`
	Workers    int                    `json:"workers"`
	Endpoints  []shardGatewayEndpoint `json:"endpoints"`
	GatewayQPS float64                `json:"gateway_qps"`
	DirectQPS  float64                `json:"direct_qps"`
}

// shardReport is the "shard" section of BENCH_shard.json.
type shardReport struct {
	Repeats int                 `json:"repeats"`
	Mining  []shardMineRun      `json:"mining"`
	Gateway *shardGatewayReport `json:"gateway"`
}

// shardBenchCounts are the shard widths the mining half measures, per
// the sharding design's target deployment sizes.
var shardBenchCounts = []int{1, 2, 4}

// shardBenchRequests is the per-endpoint request count of the gateway
// half; smaller than the serve experiment's because every gateway
// request crosses loopback HTTP to the replicas.
const shardBenchRequests = 2000

// runShardBench measures the sharded mining path (shard.MineAll at 1,
// 2 and 4 partitions vs single-process core.Mine, merge verified) and
// the scatter-gather gateway's query throughput vs a direct server,
// writing BENCH_shard.json.
func runShardBench(ctx context.Context, datasets string, scale float64, repeats int, outDir string, stdout io.Writer) error {
	if repeats < 1 {
		repeats = 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("shard: creating %s: %w", outDir, err)
	}
	report := benchReport{
		Schema:  benchSchema,
		Dataset: "shard",
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Shard:   &shardReport{Repeats: repeats},
	}
	for _, name := range strings.Split(datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		runs, err := shardMineOne(ctx, name, scale, repeats)
		if err != nil {
			return fmt.Errorf("shard %s: %w", name, err)
		}
		report.Shard.Mining = append(report.Shard.Mining, runs...)
		for _, r := range runs {
			fmt.Fprintf(stdout, "shard %s n=%d wall=%8.1fms (verdict=%.1f max_shard=%.1f merge=%.1f) single=%8.1fms speedup=%4.2fx sets=%d reused=%d merge_ok=%v\n",
				r.Dataset, r.Shards, r.WallMS, r.VerdictMS, r.WallMS-r.VerdictMS-r.MergeMS, r.MergeMS,
				r.SingleMS, r.Speedup, r.Sets, r.ReusedVerdicts, r.MergeVerified)
		}
	}
	gw, err := shardGatewayBench(ctx, stdout)
	if err != nil {
		return fmt.Errorf("shard gateway: %w", err)
	}
	report.Shard.Gateway = gw

	path := filepath.Join(outDir, "BENCH_shard.json")
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// shardMineOne times single-process mining and each sharded width on
// one dataset, verifying every merged result against the baseline.
// The sealed level-1 verdicts are computed (and timed) once and shared
// by every width; each shard's partition is then mined sequentially so
// its wall is uncontended, and the published wall is the deployment
// critical path verdict + slowest shard + merge.
func shardMineOne(ctx context.Context, name string, scale float64, repeats int) ([]shardMineRun, error) {
	d, err := experiments.Load(name, scale)
	if err != nil {
		return nil, err
	}
	p := d.Params()

	var single *core.Result
	singleMS := bestOfMS(repeats, func() error {
		single, err = core.Mine(ctx, d.Graph, p, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	var verdicts *core.Level1Verdicts
	verdictMS := bestOfMS(repeats, func() error {
		verdicts, err = core.ComputeLevel1(ctx, d.Graph, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	pv := p
	pv.Level1Verdicts = verdicts

	var runs []shardMineRun
	for _, n := range shardBenchCounts {
		parts := make([]*core.Result, n)
		walls := make([]float64, n)
		maxWall := 0.0
		for k := 0; k < n; k++ {
			k := k
			walls[k] = bestOfMS(repeats, func() error {
				parts[k], err = shard.Mine(ctx, d.Graph, pv, k, n)
				return err
			})
			if err != nil {
				return nil, err
			}
			if walls[k] > maxWall {
				maxWall = walls[k]
			}
		}
		var merged *core.Result
		mergeMS := bestOfMS(repeats, func() error {
			merged, err = shard.Merge(parts...)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := sameMinedResult(single, merged); err != nil {
			return nil, fmt.Errorf("%d-shard merge diverged from single-process: %w", n, err)
		}
		wallMS := verdictMS + maxWall + mergeMS
		runs = append(runs, shardMineRun{
			Dataset:        name,
			Scale:          scale,
			Shards:         n,
			VerdictMS:      verdictMS,
			ShardWallsMS:   walls,
			MergeMS:        mergeMS,
			WallMS:         wallMS,
			SingleMS:       singleMS,
			Speedup:        singleMS / wallMS,
			Sets:           len(merged.Sets),
			Patterns:       len(merged.Patterns),
			ReusedVerdicts: merged.Stats.ReusedVerdicts,
			MergeVerified:  true,
		})
	}
	return runs, nil
}

// sameMinedResult checks the merged sharded result set-for-set against
// the single-process baseline (the property tests in internal/shard
// prove full bit-identity; the bench re-checks the cheap invariants so
// a broken merge can never publish a timing).
func sameMinedResult(want, got *core.Result) error {
	if len(want.Sets) != len(got.Sets) || len(want.Patterns) != len(got.Patterns) {
		return fmt.Errorf("%d/%d sets, %d/%d patterns",
			len(got.Sets), len(want.Sets), len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Sets {
		if want.Sets[i].Key() != got.Sets[i].Key() || want.Sets[i].Epsilon != got.Sets[i].Epsilon {
			return fmt.Errorf("set %d: %s ε=%g vs %s ε=%g", i,
				got.Sets[i].Key(), got.Sets[i].Epsilon, want.Sets[i].Key(), want.Sets[i].Epsilon)
		}
	}
	return nil
}

// shardGatewayBench boots two sharded replicas of the quickstart
// dataset behind httptest servers, fronts them with the scatter-gather
// gateway, and measures the gateway handler's throughput per endpoint
// against a direct single-process server handler. The gateway itself
// is driven in-process, so the measured overhead is the fan-out,
// loopback HTTP and merge cost.
func shardGatewayBench(ctx context.Context, stdout io.Writer) (*shardGatewayReport, error) {
	const n = 2
	g := scpm.PaperExample()
	opts := []scpm.Option{
		scpm.WithSigmaMin(3), scpm.WithGamma(0.6), scpm.WithMinSize(4),
		scpm.WithEpsMin(0.5), scpm.WithTopK(10),
	}
	miner, err := scpm.NewMiner(opts...)
	if err != nil {
		return nil, err
	}
	man, err := shard.BuildManifestSealed(ctx, g, miner.Params(), n, nil)
	if err != nil {
		return nil, err
	}

	urls := make([]string, n)
	for k := 0; k < n; k++ {
		h, _, err := shardHandler(ctx, g, append(opts[:len(opts):len(opts)], scpm.WithShard(k, n))...)
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		urls[k] = ts.URL
	}
	direct, res, err := shardHandler(ctx, g, opts...)
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{Manifest: man, Shards: urls, Timeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}

	setID := res.Sets[0].ID()
	endpoints := []shardGatewayEndpoint{
		{Name: "sets", Path: "/sets"},
		{Name: "sets_ranked", Path: "/sets?rank=epsilon&k=2"},
		{Name: "set_by_id", Path: "/sets/" + setID},
		{Name: "epsilon", Path: "/epsilon?attrs=A,B"},
		{Name: "vertices", Path: "/vertices/6"},
	}
	workers := runtime.GOMAXPROCS(0)
	report := &shardGatewayReport{Shards: n, Workers: workers}
	var gwRequests, directRequests int
	var gwSeconds, directSeconds float64
	for i := range endpoints {
		ep := &endpoints[i]
		// Warm both paths (ε caches, connection pools) before timing.
		if code := driveOnce(gw, ep.Path); code != 200 {
			return nil, fmt.Errorf("warmup GET %s via gateway returned %d", ep.Path, code)
		}
		if code := driveOnce(direct, ep.Path); code != 200 {
			return nil, fmt.Errorf("warmup GET %s direct returned %d", ep.Path, code)
		}
		gwWall, err := driveEndpoint(ctx, gw, ep.Path, shardBenchRequests, workers)
		if err != nil {
			return nil, err
		}
		directWall, err := driveEndpoint(ctx, direct, ep.Path, shardBenchRequests, workers)
		if err != nil {
			return nil, err
		}
		ep.Requests = shardBenchRequests
		ep.GatewayQPS = float64(shardBenchRequests) / gwWall.Seconds()
		ep.DirectQPS = float64(shardBenchRequests) / directWall.Seconds()
		ep.Overhead = ep.DirectQPS / ep.GatewayQPS
		gwRequests += shardBenchRequests
		directRequests += shardBenchRequests
		gwSeconds += gwWall.Seconds()
		directSeconds += directWall.Seconds()
		fmt.Fprintf(stdout, "shard gateway %-12s %7d req %10.0f qps (direct %10.0f qps, %4.1fx)\n",
			ep.Name, ep.Requests, ep.GatewayQPS, ep.DirectQPS, ep.Overhead)
	}
	report.Endpoints = endpoints
	report.GatewayQPS = float64(gwRequests) / gwSeconds
	report.DirectQPS = float64(directRequests) / directSeconds
	return report, nil
}

// shardHandler mines the quickstart graph with the given options and
// returns a ready server handler for it.
func shardHandler(ctx context.Context, g *scpm.Graph, opts ...scpm.Option) (http.Handler, *scpm.Result, error) {
	miner, err := scpm.NewMiner(opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := miner.Mine(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	idx := scpm.NewIndex(res, g)
	h, err := scpm.NewServerHandler(idx, g, miner.Params(), scpm.ServerConfig{})
	if err != nil {
		return nil, nil, err
	}
	return h, res, nil
}
