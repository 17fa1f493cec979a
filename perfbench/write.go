package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/datagen"
	"oreo/internal/exec"
	"oreo/internal/replica"
	"oreo/internal/serve"
	"oreo/internal/table"
)

// The write workload: in each round one writer appends fixed-size
// batches over /v2 while one reader queries as in the read workload.
// Auto-compaction folds the delta at the default threshold, and an
// in-process follower replicates every append, fold and decision. Each
// round starts from a fresh leader and follower on the same base, so
// every round folds the same base sizes.
const (
	writeBaseRows = 100000
	// writeBatch rows per append; it divides the compaction threshold,
	// so every fold is triggered by a whole batch.
	writeBatch = 256
	// writeFolds compactions per round.
	writeFolds = 4
	// writeMinRounds is the least number of rounds (and set-ups) a run makes.
	writeMinRounds = 3
	// catchUpTimeout bounds the wait for the follower to reach the
	// leader's final epoch.
	catchUpTimeout = 60 * time.Second
)

// writeInputs are a write run's seeded inputs.
type writeInputs struct {
	base *oreo.Dataset
	// appended holds every row a round appends, in order; batches are
	// its consecutive writeBatch-row slices.
	appended *oreo.Dataset
	batches  [][]client.Row
	pool     []oreo.Query
	queries  []client.Query
	// baseAns and prefix are the probe oracle: prefix[i][j] is pool
	// query i's answer over the first j appended batches.
	baseAns map[int]aggAnswer
	prefix  map[int][]aggAnswer
}

func newWriteInputs(seed int64) *writeInputs {
	rng := rand.New(rand.NewSource(seed))
	threshold := serve.DefaultCompactThreshold
	total := writeBaseRows + writeFolds*threshold
	// Rows come in order-date order, so the appended tail is the newest
	// data, as an appending writer would deliver it.
	full := datagen.GenerateTPCH(total, rng)
	in := &writeInputs{
		base:     sliceRows(full, 0, writeBaseRows),
		appended: sliceRows(full, writeBaseRows, total),
		pool:     queryPool(readPerTemplate, rng),
		baseAns:  make(map[int]aggAnswer),
		prefix:   make(map[int][]aggAnswer),
	}
	rows := clientRows(in.appended)
	for i := 0; i < len(rows); i += writeBatch {
		in.batches = append(in.batches, rows[i:i+writeBatch])
	}
	in.queries = make([]client.Query, len(in.pool))
	for i, q := range in.pool {
		in.queries[i] = clientQuery(q)
		if i%probeEvery != 0 {
			continue
		}
		in.baseAns[i] = bruteForce(in.base, q, 0, in.base.NumRows())
		acc := aggAnswer{sums: make([]int64, len(sumColumns))}
		pre := []aggAnswer{acc}
		for j := range in.batches {
			acc = acc.plus(bruteForce(in.appended, q, j*writeBatch, (j+1)*writeBatch))
			pre = append(pre, acc)
		}
		in.prefix[i] = pre
	}
	return in
}

// writeRound is one round's leader, follower and measurements.
type writeRound struct {
	*httpServer
	pub     *replica.Publisher
	fol     *replica.Follower
	counter *countingTransport
	// layouts maps every layout name the leader served to the layout.
	layouts map[string]*oreo.Layout
	// genMS is how long generating the initial layout took.
	genMS float64

	elapsed   time.Duration
	appendLat []float64 // ms, batches that did not fold
	foldLat   []float64 // ms, batches that triggered a fold
	lagMS     []float64 // traced: ack → follower applied
	readLat   []float64 // ms
	probes    []writeProbe
	deltaRows []float64 // delta rows each read scanned
	// totalCost is the pool's summed cost at the leader's final epoch.
	totalCost float64
}

// writeProbe is one answer to a probe query, kept for the oracle.
type writeProbe struct {
	idx int
	res client.TableResult
}

// setupWrite builds a round's leader (layout, optimizer, core, HTTP
// server, publisher), its follower, and the leader's execution store.
// A traced set-up records the layout's generation as a span.
func setupWrite(in *writeInputs, tr *tracer) (*writeRound, error) {
	var lay *oreo.Layout
	gen := timedOrNot(tr, "layout.generate", func() { lay = poolLayout(in.base, in.pool) })
	srv, err := leaderTable(in.base, lay)
	if err != nil {
		return nil, err
	}
	quiet := func(string, ...any) {}
	pub, err := replica.NewPublisher(srv.Core(), replica.PublisherConfig{Logf: quiet})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("building publisher: %w", err)
	}
	pub.Mount(srv)
	h, err := startServer(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	wr := &writeRound{httpServer: h, pub: pub, layouts: map[string]*oreo.Layout{lay.Name: lay}, genMS: ms(gen)}
	wr.counter = &countingTransport{base: &http.Transport{}}
	wr.fol, err = replica.NewFollower(replica.FollowerConfig{
		Upstream:     h.url,
		Tables:       []replica.TableData{{Name: tableName, Dataset: in.base}},
		HTTPClient:   &http.Client{Transport: wr.counter},
		ForwardQueue: -1,
		Logf:         quiet,
	})
	if err != nil {
		h.close()
		return nil, fmt.Errorf("building follower: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), catchUpTimeout)
	defer cancel()
	if err := wr.fol.WaitReady(ctx); err != nil {
		wr.close()
		return nil, fmt.Errorf("follower did not become ready: %w", err)
	}
	if _, err := h.cl.Query(context.Background(), in.queries[0]); err != nil {
		wr.close()
		return nil, fmt.Errorf("first query: %w", err)
	}
	return wr, nil
}

func (wr *writeRound) close() {
	wr.fol.Close()
	wr.httpServer.close()
	wr.counter.base.CloseIdleConnections()
}

// drive runs the round's measured phase: every batch appended in order
// while one closed-loop reader queries; it returns when the last batch
// is acknowledged and the reader has stopped.
func (wr *writeRound) drive(in *writeInputs, traced bool, appends, reads *opCount) error {
	ctx := context.Background()
	core := wr.srv.Core()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idx := i % len(in.queries)
			reads.attempted++
			t0 := time.Now()
			res, err := wr.cl.Query(ctx, in.queries[idx])
			d := time.Since(t0)
			if err != nil {
				if reads.failed == 0 {
					fmt.Fprintln(os.Stderr, "perfbench: read failed:", err)
				}
				reads.failed++
				continue
			}
			wr.readLat = append(wr.readLat, ms(d))
			if len(res) == 1 && res[0].Execution != nil {
				wr.deltaRows = append(wr.deltaRows, float64(res[0].Execution.DeltaRows))
			}
			if idx%probeEvery == 0 {
				wr.probes = append(wr.probes, writeProbe{idx: idx, res: res[0]})
			}
		}
	}()

	// A traced round measures follower lag: a watcher polls the
	// follower until it has applied each acknowledged epoch.
	type acked struct {
		epoch uint64
		at    time.Time
	}
	var lagCh chan acked
	if traced {
		lagCh = make(chan acked, len(in.batches)) // one entry per batch, never blocks
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range lagCh {
				for wr.fol.Position(tableName) < a.epoch && time.Since(a.at) < catchUpTimeout {
					time.Sleep(100 * time.Microsecond)
				}
				wr.lagMS = append(wr.lagMS, ms(time.Since(a.at)))
			}
		}()
	}

	var err error
	start := time.Now()
	for _, b := range in.batches {
		appends.attempted++
		t0 := time.Now()
		ack, aerr := wr.cl.Append(ctx, tableName, b)
		d := time.Since(t0)
		if aerr != nil {
			appends.failed++
			err = fmt.Errorf("append: %w", aerr)
			break
		}
		if lagCh != nil {
			lagCh <- acked{ack.Epoch, time.Now()}
		}
		if ack.DeltaRows != 0 {
			wr.appendLat = append(wr.appendLat, ms(d))
			continue
		}
		wr.foldLat = append(wr.foldLat, ms(d))
		pos, ok := core.ReplicaPosition(tableName)
		if !ok {
			err = fmt.Errorf("no replication position after a fold")
			break
		}
		wr.layouts[pos.Snapshot.Serving.Name] = pos.Snapshot.Serving
	}
	wr.elapsed = time.Since(start)
	close(stop)
	if lagCh != nil {
		close(lagCh)
	}
	wg.Wait()
	return err
}

// check judges a finished round: the fold count follows from the rows
// appended, every kept reader answer matches the oracle for exactly the
// rows it saw, and the caught-up follower answers the probe set
// bit-identically to the leader, both matching brute force. It also
// sums the pool's costs at the final epoch, each checked against the
// reference, into totalCost.
func (wr *writeRound) check(rep *report, in *writeInputs) error {
	core := wr.srv.Core()
	schema := in.base.Schema()
	appended := len(in.batches) * writeBatch
	st, err := core.Stats(tableName)
	if err != nil {
		return fmt.Errorf("leader stats: %w", err)
	}
	wantFolds := appended / serve.DefaultCompactThreshold
	rep.check(int(st.Compactions) == wantFolds && len(wr.foldLat) == wantFolds,
		"write: %d compactions (%d fold acks) for %d appended rows, want %d", st.Compactions, len(wr.foldLat), appended, wantFolds)

	bad := 0
	for _, p := range wr.probes {
		msg := writeMismatch(in, wr.layouts, schema, p)
		if msg != "" {
			if bad == 0 {
				rep.check(false, "write: reader answer to pool query %d: %s", p.idx, msg)
			}
			bad++
		}
	}
	rep.check(bad == 0, "write: %d of %d reader probe answers differ from the oracle", bad, len(wr.probes))

	pos, ok := core.ReplicaPosition(tableName)
	if !ok {
		return fmt.Errorf("no leader position")
	}
	deadline := time.Now().Add(catchUpTimeout)
	for wr.fol.Position(tableName) < pos.Epoch {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at epoch %d, leader at %d", wr.fol.Position(tableName), pos.Epoch)
		}
		time.Sleep(time.Millisecond)
	}
	ctx := context.Background()
	deltaRows := 0
	if pos.Delta != nil {
		deltaRows = pos.Delta.NumRows()
	}
	total := 0.0
	for i, q := range in.pool {
		ref := refCost(pos.Snapshot.Serving.Part, schema, q, deltaRows)
		if i%probeEvery != 0 {
			res, err := core.Answer(ctx, serve.QueryRequest{Table: tableName, ID: q.ID, Preds: wirePreds(q)})
			if err != nil {
				rep.check(false, "write: final cost of pool query %d: %v", i, err)
				continue
			}
			rep.check(math.Float64bits(res[0].Cost) == math.Float64bits(ref), "write: final cost of pool query %d is %v, reference %v", i, res[0].Cost, ref)
			total += res[0].Cost
			continue
		}
		req := executeRequest(q)
		lead, lerr := core.Answer(ctx, req)
		foll, ferr := wr.fol.Core().Answer(ctx, req)
		if lerr != nil || ferr != nil {
			rep.check(false, "write: probe %d: leader error %v, follower error %v", i, lerr, ferr)
			continue
		}
		rep.check(sameResult(lead[0], foll[0]), "write: follower answer to probe %d differs from the leader's at epoch %d", i, pos.Epoch)
		want := in.baseAns[i].plus(in.prefix[i][len(in.batches)])
		got, aerr := serveAnswer(lead[0])
		rep.check(aerr == nil && got.equal(want), "write: final answer to probe %d is %v (%v), brute force %v", i, got, aerr, want)
		rep.check(math.Float64bits(lead[0].Cost) == math.Float64bits(ref), "write: final cost of probe %d is %v, reference %v", i, lead[0].Cost, ref)
		total += lead[0].Cost
	}
	wr.totalCost = total
	return nil
}

// writeMismatch judges one reader answer ("" when it holds): the rows
// it saw are the base plus a whole number of acknowledged batches, its
// aggregates are brute force over exactly those rows, and its cost is
// the reference on the layout it names with the delta it read.
func writeMismatch(in *writeInputs, layouts map[string]*oreo.Layout, schema *oreo.Schema, p writeProbe) string {
	r := p.res
	lay, ok := layouts[r.Layout]
	if !ok {
		return fmt.Sprintf("served on unknown layout %q", r.Layout)
	}
	if r.Execution == nil {
		return "no execution"
	}
	seen := r.Execution.RowsTotal - in.base.NumRows()
	if r.Execution.RowsTotal != lay.Part.TotalRows+r.DeltaRows || seen < 0 || seen%writeBatch != 0 || seen/writeBatch >= len(in.prefix[p.idx]) {
		return fmt.Sprintf("saw %d rows (%d in the delta) on %s of %d rows", r.Execution.RowsTotal, r.DeltaRows, lay.Name, lay.Part.TotalRows)
	}
	want := in.baseAns[p.idx].plus(in.prefix[p.idx][seen/writeBatch])
	got, err := clientAnswer(r)
	if err != nil {
		return err.Error()
	}
	if !got.equal(want) {
		return fmt.Sprintf("answer %v over %d rows, brute force %v", got, r.Execution.RowsTotal, want)
	}
	if ref := refCost(lay.Part, schema, in.pool[p.idx], r.DeltaRows); math.Float64bits(r.Cost) != math.Float64bits(ref) {
		return fmt.Sprintf("cost %v, reference %v", r.Cost, ref)
	}
	return ""
}

// sameResult reports whether two in-process answers agree bit for bit.
func sameResult(a, b serve.TableResult) bool {
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || a.Layout != b.Layout ||
		a.DeltaRows != b.DeltaRows || !slices.Equal(a.SurvivorPartitions, b.SurvivorPartitions) {
		return false
	}
	if (a.Execution == nil) != (b.Execution == nil) {
		return false
	}
	if a.Execution == nil {
		return true
	}
	ea, eb := *a.Execution, *b.Execution
	return ea.MatchedRows == eb.MatchedRows && ea.RowsExamined == eb.RowsExamined &&
		ea.RowsTotal == eb.RowsTotal && ea.PartitionsRead == eb.PartitionsRead &&
		slices.EqualFunc(ea.Aggregates, eb.Aggregates, func(x, y serve.AggregateResultJSON) bool {
			return x.Op == y.Op && x.Col == y.Col && x.Type == y.Type && x.Valid == y.Valid &&
				x.ValueI == y.ValueI && math.Float64bits(x.ValueF) == math.Float64bits(y.ValueF) && x.ValueS == y.ValueS
		})
}

func runWrite(opts options, rep *report) error {
	in := newWriteInputs(opts.seed)
	reads, appends := rep.op("reads"), rep.op("appends")
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}

	var (
		setups, genMS             []float64
		measured                  time.Duration
		readLat, appendLat, folds []float64
		lagMS, deltaRows          []float64
		streamBytes, records      int64
		resnapshots               uint64
		heapMB, total             float64
		statesMax, rounds         int
	)
	for rounds < writeMinRounds || measured.Seconds() < opts.seconds {
		runtime.GC() // see runDecide
		t0 := time.Now()
		wr, err := setupWrite(in, tr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		genMS = append(genMS, wr.genMS)
		reads.attempted++
		span := -1
		if tr != nil {
			span = tr.begin("write.round", -1)
		}
		err = wr.drive(in, tr != nil, appends, reads)
		if tr != nil {
			tr.end(span)
		}
		if err == nil {
			err = wr.check(rep, in)
		}
		if err != nil {
			wr.close()
			return err
		}
		if rounds == 0 {
			total = wr.totalCost
		}
		rep.check(math.Float64bits(wr.totalCost) == math.Float64bits(total),
			"write: round %d's final pool cost %v differs from the first round's %v", rounds, wr.totalCost, total)
		rounds++
		measured += wr.elapsed
		readLat = append(readLat, wr.readLat...)
		appendLat = append(appendLat, wr.appendLat...)
		folds = append(folds, wr.foldLat...)
		lagMS = append(lagMS, wr.lagMS...)
		deltaRows = append(deltaRows, wr.deltaRows...)
		fs := wr.fol.Stats()
		records += int64(fs.Snapshots + fs.Decisions + fs.Resumes + fs.Appends + fs.Compactions)
		streamBytes += wr.counter.n.Load()
		resnapshots += wr.pub.Resnapshots()
		if st, err := wr.srv.Core().Stats(tableName); err == nil {
			statesMax = st.MaxStates
		}
		heapMB = liveHeapMB()
		wr.close()
	}
	rowsAppended := float64(rounds * len(in.batches) * writeBatch)
	fmt.Fprintf(os.Stderr, "write: %d rounds, %d folds, %d appends, %d reads in %.2fs measured; "+
		"reads %.1f/s, read p50 %.3f ms; fold ack median %.1f ms\n",
		rounds, len(folds), len(appendLat)+len(folds), len(readLat), measured.Seconds(),
		float64(len(readLat))/measured.Seconds(), quantile(readLat, 0.5), median(folds))
	e2e := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"live_heap_mb": {heapMB, "MB"},
		"ops_per_s":    {rowsAppended / measured.Seconds(), "1/s"},
		"op_p50_ms":    {median(appendLat), "ms"},
		"total_cost":   {total, "units"},
	}
	if !opts.trace {
		rep.metrics = e2e
		return nil
	}
	printTracedE2E("write", e2e)
	rep.set("layout.candgen_ms", "ms", median(genMS))
	rep.set("policy.states_max", "count", float64(statesMax))
	if err := writeLayers(rep, tr, in); err != nil {
		return err
	}
	note("write", "exec.delta_rows_scanned", "count", mean(deltaRows))
	note("write", "replica.record_bytes", "bytes", float64(streamBytes)/float64(records))
	note("write", "replica.bytes_per_row", "bytes", float64(streamBytes)/rowsAppended)
	note("write", "replica.follower_lag_ms", "ms", median(lagMS))
	note("write", "replica.resnapshots", "count", float64(resnapshots))
	return tr.write(opts.spanDir, fmt.Sprintf("write-seed%d.jsonl", opts.seed), os.Stderr)
}

// writeLayers replays one round's appends in-process on a private core
// (no HTTP, no follower), timing Core.AppendDataset per batch, then
// replays each fold's steps — concatenation, repartitioning under the
// layout the core folded to, store build — on the grown bases. The
// decision loop's steps are timed on the base and its layout, and the
// read path and a follower's bootstrap on the final grown base and the
// layout it was folded to.
func writeLayers(rep *report, tr *tracer, in *writeInputs) error {
	lay := poolLayout(in.base, in.pool)
	srv, err := leaderTable(in.base, lay)
	if err != nil {
		return err
	}
	defer srv.Close()
	core := srv.Core()
	pass := tr.begin("write.layer_pass", -1)
	var appendUS, foldMS []float64
	var folded []*oreo.Layout
	for j := range in.batches {
		batch := sliceRows(in.appended, j*writeBatch, (j+1)*writeBatch)
		var ack serve.AppendResponse
		d := tr.timed("serve.append", pass, func() { ack, err = core.AppendDataset(tableName, batch) })
		if err != nil {
			return fmt.Errorf("in-process append: %w", err)
		}
		if ack.DeltaRows != 0 {
			appendUS = append(appendUS, us(d))
			continue
		}
		foldMS = append(foldMS, ms(d))
		pos, ok := core.ReplicaPosition(tableName)
		if !ok {
			return fmt.Errorf("no position after an in-process fold")
		}
		folded = append(folded, pos.Snapshot.Serving)
	}
	var concatMS, partMS, storeMS []float64
	grown := in.base
	for f, l := range folded {
		thr := serve.DefaultCompactThreshold
		delta := sliceRows(in.appended, f*thr, (f+1)*thr)
		fold := tr.begin("serve.fold_replay", pass)
		c := tr.timed("table.concat", fold, func() { grown = table.Concat(grown, delta) })
		var part *table.Partitioning
		p := tr.timed("table.partition", fold, func() {
			part, err = table.BuildPartitioning(grown, l.Part.Assign, l.Part.NumPartitions)
		})
		if err != nil {
			return fmt.Errorf("replaying fold partitioning: %w", err)
		}
		s := tr.timed("exec.store_build", fold, func() { _, err = exec.NewStore(grown, part) })
		if err != nil {
			return fmt.Errorf("replaying fold store build: %w", err)
		}
		tr.end(fold)
		concatMS, partMS, storeMS = append(concatMS, ms(c)), append(partMS, ms(p)), append(storeMS, ms(s))
	}
	tr.end(pass)
	if len(folded) == 0 {
		return fmt.Errorf("the in-process replay never folded")
	}
	rep.set("table.partition_ms", "ms", median(partMS))
	rep.set("exec.store_build_ms", "ms", median(storeMS))
	note("write", "serve.append_us", "us", median(appendUS))
	note("write", "serve.fold_ms", "ms", median(foldMS))
	note("write", "table.concat_ms", "ms", median(concatMS))
	if err := stepLayer(rep, tr, in.base, lay, in.pool); err != nil {
		return err
	}
	return layerPass(rep, tr, "write", grown, folded[len(folded)-1], in.pool)
}

// countingTransport counts the response bytes its requests receive —
// on a follower, the replication stream's bytes on the wire.
type countingTransport struct {
	base *http.Transport
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, n: &t.n}
	return resp, nil
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.rc.Read(p)
	b.n.Add(int64(k))
	return k, err
}

func (b *countingBody) Close() error { return b.rc.Close() }
