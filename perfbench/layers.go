package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/exec"
	"oreo/internal/replica"
	"oreo/internal/serve"
	"oreo/internal/table"
)

// Every traced run reports the same per-layer metrics, each measured on
// the workload's own data, layouts and queries. The layers a workload
// does not drive in its measured phase (the read path on decide, the
// decision loop's steps on read and write, a follower's bootstrap on
// decide and read) are driven here, in a layer pass after the run,
// through the same public functions.
const (
	// layerPasses is how many times the query pass walks its queries.
	layerPasses = 4
	// layerReps is how many times a replayed build (partitioning, store,
	// follower bootstrap) is repeated where the run made fewer than that.
	layerReps = 3
)

// note prints a layer figure that only this workload measures. It goes
// to standard error, next to the span summary, and not into the result:
// every reported metric is measured on every workload.
func note(workload, name, unit string, v float64) {
	fmt.Fprintf(os.Stderr, "layer %s: %s = %.6g %s\n", workload, name, v, unit)
}

// passLeader builds a leader serving lay over ds with no candidate
// generation, its publisher mounted, listening on loopback.
func passLeader(ds *oreo.Dataset, lay *oreo.Layout) (*httpServer, error) {
	srv, err := leaderTable(ds, lay)
	if err != nil {
		return nil, err
	}
	pub, err := replica.NewPublisher(srv.Core(), replica.PublisherConfig{Logf: func(string, ...any) {}})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("building publisher: %w", err)
	}
	pub.Mount(srv)
	return startServer(srv)
}

// layerPass times, on a fresh leader serving lay over ds, a follower's
// bootstrap from it (layerReps times) and then every query of qs
// through each read-path layer (layerPasses times), and reports:
// replica.bootstrap_ms, replica.snapshot_bytes, serve.codec_us,
// serve.answer_us, serve.route_us, prune.cost_us, exec.scan_us,
// exec.rows_examined and prune.scanned_frac. Every cost is checked
// against the interpreted reference and every scan against the served
// answer.
func layerPass(rep *report, tr *tracer, workload string, ds *oreo.Dataset, lay *oreo.Layout, qs []oreo.Query) error {
	h, err := passLeader(ds, lay)
	if err != nil {
		return err
	}
	defer h.close()
	pass := tr.begin("layer_pass", -1)
	defer tr.end(pass)

	var boot, snapBytes []float64
	for i := 0; i < layerReps; i++ {
		d, n, err := bootstrapFollower(tr, pass, h.url, ds)
		if err != nil {
			return err
		}
		boot, snapBytes = append(boot, ms(d)), append(snapBytes, float64(n))
	}

	core := h.srv.Core()
	store, err := exec.NewStore(ds, lay.Part)
	if err != nil {
		return fmt.Errorf("building the layer pass's store: %w", err)
	}
	aggs := []exec.AggSpec{{Op: exec.AggCount}}
	for _, c := range sumColumns {
		aggs = append(aggs, exec.AggSpec{Op: exec.AggSum, Col: c})
	}
	schema := ds.Schema()
	names := []string{tableName}
	schemaOf := func(string) *oreo.Schema { return schema }
	scanOpts := exec.Options{Parallelism: runtime.NumCPU()}
	ctx := context.Background()

	var codec, answer, route, cost, scan, rows, fracs []float64
	for p := 0; p < layerPasses; p++ {
		for i, q := range qs {
			parent := tr.begin("query", pass)
			req := executeRequest(q)
			var decoded serve.QueryRequest
			var err error
			c1 := tr.timed("serve.codec", parent, func() {
				var body []byte
				if body, err = json.Marshal(req); err == nil {
					err = json.Unmarshal(body, &decoded)
				}
			})
			if err != nil {
				return fmt.Errorf("codec round trip of a request: %w", err)
			}
			var res []serve.TableResult
			a := tr.timed("serve.answer", parent, func() { res, err = core.Answer(ctx, decoded) })
			if err != nil {
				return fmt.Errorf("in-process answer: %w", err)
			}
			var back struct {
				Results []client.TableResult `json:"results"`
			}
			c2 := tr.timed("serve.codec", parent, func() {
				var body []byte
				if body, err = json.Marshal(serve.QueryResponse{Results: res}); err == nil {
					err = json.Unmarshal(body, &back)
				}
			})
			if err != nil {
				return fmt.Errorf("codec round trip of a response: %w", err)
			}
			r := tr.timed("serve.route", parent, func() { oreo.RouteQuery(q, names, schemaOf) })
			var ids []int
			var c float64
			k := tr.timed("prune.cost", parent, func() { c, ids = lay.CostSurvivorsSnapshot(q) })
			var sr exec.Result
			s := tr.timed("exec.scan", parent, func() { sr, err = store.Scan(q, ids, aggs, scanOpts) })
			if err != nil {
				return fmt.Errorf("scan: %w", err)
			}
			tr.end(parent)

			if p == 0 {
				ref := refCost(lay.Part, schema, q, 0)
				rep.check(math.Float64bits(c) == math.Float64bits(ref) && math.Float64bits(res[0].Cost) == math.Float64bits(ref),
					"%s: layer pass cost %v (served %v) for query %d, reference %v", workload, c, res[0].Cost, i, ref)
				got, err := serveAnswer(res[0])
				rep.check(err == nil && int64(sr.Matched) == got.count && sr.RowsExamined == res[0].Execution.RowsExamined,
					"%s: layer pass scan of query %d disagrees with the served answer", workload, i)
				rows = append(rows, float64(sr.RowsExamined))
				fracs = append(fracs, ref)
			}
			codec = append(codec, us(c1+c2))
			answer = append(answer, us(a))
			route = append(route, us(r))
			cost = append(cost, us(k))
			scan = append(scan, us(s))
		}
	}
	rep.set("replica.bootstrap_ms", "ms", median(boot))
	rep.set("replica.snapshot_bytes", "bytes", median(snapBytes))
	rep.set("serve.codec_us", "us", median(codec))
	rep.set("serve.answer_us", "us", median(answer))
	rep.set("serve.route_us", "us", median(route))
	rep.set("prune.cost_us", "us", median(cost))
	rep.set("exec.scan_us", "us", median(scan))
	rep.set("exec.rows_examined", "count", mean(rows))
	rep.set("prune.scanned_frac", "fraction", mean(fracs))
	return nil
}

// bootstrapFollower starts a follower of the leader at url, waits until
// it has applied its first snapshot, and returns how long that took and
// how many bytes its subscription had received by then.
func bootstrapFollower(tr *tracer, parent int, url string, ds *oreo.Dataset) (time.Duration, int64, error) {
	counter := &countingTransport{base: &http.Transport{}}
	defer counter.base.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), catchUpTimeout)
	defer cancel()
	var fol *replica.Follower
	var err error
	d := tr.timed("replica.bootstrap", parent, func() {
		fol, err = replica.NewFollower(replica.FollowerConfig{
			Upstream:     url,
			Tables:       []replica.TableData{{Name: tableName, Dataset: ds}},
			HTTPClient:   &http.Client{Transport: counter},
			ForwardQueue: -1,
			Logf:         func(string, ...any) {},
		})
		if err == nil {
			err = fol.WaitReady(ctx)
		}
	})
	n := counter.n.Load()
	if fol != nil {
		fol.Close()
	}
	if err != nil {
		return 0, 0, fmt.Errorf("follower bootstrap: %w", err)
	}
	return d, n, nil
}

// buildLayers replays, for each layout, the partitioning of ds under
// its assignment and the execution store on that partitioning, and
// reports the medians as table.partition_ms and exec.store_build_ms.
func buildLayers(rep *report, tr *tracer, ds *oreo.Dataset, lays []*oreo.Layout) error {
	replay := tr.begin("build_replay", -1)
	defer tr.end(replay)
	var partMS, storeMS []float64
	for _, l := range lays {
		var part *table.Partitioning
		var err error
		p := tr.timed("table.partition", replay, func() {
			part, err = table.BuildPartitioning(ds, l.Part.Assign, l.Part.NumPartitions)
		})
		if err != nil {
			return fmt.Errorf("replaying partitioning: %w", err)
		}
		s := tr.timed("exec.store_build", replay, func() { _, err = exec.NewStore(ds, part) })
		if err != nil {
			return fmt.Errorf("replaying store build: %w", err)
		}
		partMS, storeMS = append(partMS, ms(p)), append(storeMS, ms(s))
	}
	rep.set("table.partition_ms", "ms", median(partMS))
	rep.set("exec.store_build_ms", "ms", median(storeMS))
	return nil
}

// stepLayer runs qs (layerPasses times) through the library optimizer
// configured as a read or write leader is — lay the only state, no
// candidate generation — timing every ProcessQuery: the decision loop's
// per-observation work on those workloads. It reports mts.step_us.
func stepLayer(rep *report, tr *tracer, ds *oreo.Dataset, lay *oreo.Layout, qs []oreo.Query) error {
	opt, err := oreo.New(ds, oreo.Config{Initial: lay, Period: noGeneration, Seed: optimizerSeed})
	if err != nil {
		return fmt.Errorf("building library optimizer: %w", err)
	}
	lib := tr.begin("oreo.library_round", -1)
	defer tr.end(lib)
	steps := make([]float64, 0, layerPasses*len(qs))
	for p := 0; p < layerPasses; p++ {
		for _, q := range qs {
			steps = append(steps, us(tr.timed("oreo.process_query", lib, func() { opt.ProcessQuery(q) })))
		}
	}
	rep.set("mts.step_us", "us", median(steps))
	return nil
}
