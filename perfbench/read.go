package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"oreo"
	"oreo/client"
	"oreo/internal/datagen"
	"oreo/internal/layout"
	"oreo/internal/serve"
)

// The read workload: closed-loop clients send executed count/sum
// queries over HTTP to a leader whose layout never changes — a Qd-tree
// built from the query pool itself, with candidate generation pushed
// past the run's length — so every request does the same read-path
// work: decode, route, compiled cost, survivor extraction, kernel scan,
// encode.
const (
	readRows = 200000
	// readPerTemplate instances of each of the 13 templates: a pool of
	// 1300 queries the clients cycle through.
	readPerTemplate = 100
	// layoutQueries is how many pool queries (the first ones, 20 of
	// each template) the served Qd-tree is built from: the pool's mean
	// scanned fraction then varies by well under 1% across seeds, while
	// generation, whose cost grows with cuts × queries, stays short.
	layoutQueries = 260
	// readClients is the number of closed-loop clients (the host's two
	// CPUs; more would only queue).
	readClients = 2
	// readSetups is how many times a run sets the server up.
	readSetups = 5
	// warmup is run before every measured loop and not counted.
	warmup = time.Second
	// probeEvery selects the pool entries whose aggregates are checked
	// against brute force: every probeEvery-th.
	probeEvery = 8
	// noGeneration is a candidate-generation period no run reaches, so
	// the decision loop keeps one state and only takes D-UMTS steps.
	noGeneration = math.MaxInt32
)

// httpServer is a serve.Server listening on a loopback port, with a
// client SDK pointed at it.
type httpServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan struct{}
	tr     *http.Transport
	cl     *client.Client
}

// startServer listens on a free loopback port and serves srv there.
func startServer(srv *serve.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &httpServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		tr:     &http.Transport{MaxIdleConnsPerHost: 8},
	}
	go func() {
		defer close(h.served)
		if err := h.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: http server:", err)
		}
	}()
	h.cl, err = client.New(h.url, client.WithHTTPClient(&http.Client{Transport: h.tr}))
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops the listener, waits for it, and closes the core.
func (h *httpServer) close() {
	h.hs.Close()
	<-h.served
	h.tr.CloseIdleConnections()
	h.srv.Close()
}

// leaderTable builds the leader a read or write run serves: the given
// layout as the only state and no candidate generation.
func leaderTable(ds *oreo.Dataset, lay *oreo.Layout) (*serve.Server, error) {
	m := oreo.NewMulti()
	if err := m.AddTable(tableName, ds, oreo.Config{Initial: lay, Period: noGeneration, Seed: optimizerSeed}); err != nil {
		return nil, fmt.Errorf("building optimizer: %w", err)
	}
	srv, err := serve.New(m, serve.Config{})
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	return srv, nil
}

// readSetup is one set-up read server.
type readSetup struct {
	*httpServer
	layout *oreo.Layout
}

// poolLayout is the fixed layout reads are served on: a Qd-tree built
// from the pool's first layoutQueries queries.
func poolLayout(ds *oreo.Dataset, pool []oreo.Query) *oreo.Layout {
	return layout.NewQdTreeGenerator().Generate(ds, pool[:layoutQueries], partitionsFor(ds.NumRows()))
}

// setupRead builds the Qd-tree layout from the pool, the leader and its
// HTTP server, and materializes the execution store with one executed
// query. A traced set-up records the layout's generation as a span.
func setupRead(ds *oreo.Dataset, pool []oreo.Query, tr *tracer) (*readSetup, time.Duration, error) {
	var lay *oreo.Layout
	gen := timedOrNot(tr, "layout.generate", func() { lay = poolLayout(ds, pool) })
	srv, err := leaderTable(ds, lay)
	if err != nil {
		return nil, 0, err
	}
	h, err := startServer(srv)
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	if _, err := h.cl.Query(context.Background(), clientQuery(pool[0])); err != nil {
		h.close()
		return nil, 0, fmt.Errorf("first query: %w", err)
	}
	return &readSetup{httpServer: h, layout: lay}, gen, nil
}

// timedOrNot runs fn, inside a root span when tr is not nil, and
// returns how long it took.
func timedOrNot(tr *tracer, name string, fn func()) time.Duration {
	if tr != nil {
		return tr.timed(name, -1, fn)
	}
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func runRead(opts options, rep *report) error {
	rng := rand.New(rand.NewSource(opts.seed))
	ds := datagen.GenerateTPCH(readRows, rng)
	pool := queryPool(readPerTemplate, rng)
	reads := rep.op("reads")
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}

	var setups, genMS []float64
	var rs *readSetup
	for i := 0; i < readSetups; i++ {
		if rs != nil {
			rs.close()
		}
		runtime.GC() // see runDecide
		t0 := time.Now()
		var gen time.Duration
		var err error
		if rs, gen, err = setupRead(ds, pool, tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		genMS = append(genMS, ms(gen))
		reads.attempted++
	}
	defer rs.close()

	// The oracle: the interpreted reference cost of every pool query on
	// the served layout, and brute-force answers for the probe subset.
	refs := make([]float64, len(pool))
	for i, q := range pool {
		refs[i] = refCost(rs.layout.Part, ds.Schema(), q, 0)
	}
	expect := make(map[int]aggAnswer)
	for i := 0; i < len(pool); i += probeEvery {
		expect[i] = bruteForce(ds, pool[i], 0, ds.NumRows())
	}
	var mu sync.Mutex
	checkRes := func(idx int, res []client.TableResult) {
		msg := readMismatch(rs.layout, refs[idx], expect, idx, res)
		if msg != "" {
			mu.Lock()
			rep.check(false, "read: pool query %d: %s", idx, msg)
			mu.Unlock()
		}
	}

	queries := make([]client.Query, len(pool))
	for i, q := range pool {
		queries[i] = clientQuery(q)
	}
	if _, err := closedLoop(rs.cl, queries, readClients, warmup, nil, reads, checkRes); err != nil {
		return err
	}
	loop, err := closedLoop(rs.cl, queries, readClients, time.Duration(opts.seconds*float64(time.Second)), tr, reads, checkRes)
	if err != nil {
		return err
	}
	total, err := poolCost(rs, pool, refs, rep, reads)
	if err != nil {
		return err
	}
	e2e := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"live_heap_mb": {liveHeapMB(), "MB"},
		"ops_per_s":    {float64(len(loop.lat)) / loop.elapsed.Seconds(), "1/s"},
		"op_p50_ms":    {quantile(loop.lat, 0.50), "ms"},
		"total_cost":   {total, "units"},
	}
	fmt.Fprintf(os.Stderr, "read: %d requests in %.2fs from %d clients; %d probe answers checked; p90 %.3f ms, p99 %.3f ms\n",
		len(loop.lat), loop.elapsed.Seconds(), readClients, loop.probes, quantile(loop.lat, 0.90), quantile(loop.lat, 0.99))
	if !opts.trace {
		rep.metrics = e2e
		return nil
	}
	printTracedE2E("read", e2e)
	st, err := rs.srv.Core().Stats(tableName)
	if err != nil {
		return fmt.Errorf("leader stats: %w", err)
	}
	rep.set("layout.candgen_ms", "ms", median(genMS))
	rep.set("policy.states_max", "count", float64(st.MaxStates))
	lays := make([]*oreo.Layout, layerReps)
	for i := range lays {
		lays[i] = rs.layout
	}
	if err := buildLayers(rep, tr, ds, lays); err != nil {
		return err
	}
	if err := stepLayer(rep, tr, ds, rs.layout, pool); err != nil {
		return err
	}
	if err := layerPass(rep, tr, "read", ds, rs.layout, pool); err != nil {
		return err
	}
	note("read", "serve.http_us", "us", e2e["op_p50_ms"].Value*1000-rep.metrics["serve.answer_us"].Value)
	note("read", "serve.observations_dropped", "count", float64(rs.srv.Core().Health().Dropped))
	return tr.write(opts.spanDir, fmt.Sprintf("read-seed%d.jsonl", opts.seed), os.Stderr)
}

// poolCost asks the server, untimed, for the cost of every pool query
// and returns their sum: the pool's cost on the served layout. Each
// cost is checked against the reference.
func poolCost(rs *readSetup, pool []oreo.Query, refs []float64, rep *report, reads *opCount) (float64, error) {
	total := 0.0
	for i, q := range pool {
		cq := clientQuery(q)
		cq.Execute, cq.Aggs = false, nil
		reads.attempted++
		res, err := rs.cl.Query(context.Background(), cq)
		if err != nil {
			reads.failed++
			return 0, fmt.Errorf("cost of pool query %d: %w", i, err)
		}
		ok := len(res) == 1 && res[0].Layout == rs.layout.Name && math.Float64bits(res[0].Cost) == math.Float64bits(refs[i])
		rep.check(ok, "read: cost answer to pool query %d is %+v, reference %v on %s", i, res, refs[i], rs.layout.Name)
		if ok {
			total += res[0].Cost
		}
	}
	return total, nil
}

// readMismatch describes how an answer to pool query idx differs from
// the oracle ("" when it does not): it must come from the served layout,
// cost exactly the reference, and — for probe queries — match the
// brute-force aggregates.
func readMismatch(lay *oreo.Layout, ref float64, expect map[int]aggAnswer, idx int, res []client.TableResult) string {
	if len(res) != 1 {
		return fmt.Sprintf("%d results, want 1", len(res))
	}
	r := res[0]
	if r.Layout != lay.Name {
		return fmt.Sprintf("served on %q, want %q", r.Layout, lay.Name)
	}
	if math.Float64bits(r.Cost) != math.Float64bits(ref) {
		return fmt.Sprintf("cost %v, reference %v", r.Cost, ref)
	}
	want, probe := expect[idx]
	if !probe {
		return ""
	}
	got, err := clientAnswer(r)
	if err != nil {
		return err.Error()
	}
	if !got.equal(want) {
		return fmt.Sprintf("answer %v, brute force %v", got, want)
	}
	return ""
}

// loopResult is one closed loop's outcome.
type loopResult struct {
	lat     []float64 // per-request latency, ms
	elapsed time.Duration
	probes  int // answers judged against brute force
}

// closedLoop runs clients closed-loop clients for dur: each sends its
// next query only after the previous answer arrived, client c taking
// pool entries c, c+clients, c+2·clients, … in turn. Each answer is
// passed to check with its pool index. A traced loop records one span
// per request.
func closedLoop(cl *client.Client, queries []client.Query, clients int, dur time.Duration, tr *tracer, ops *opCount, check func(int, []client.TableResult)) (*loopResult, error) {
	type clientOut struct {
		lat            []float64
		attempted, bad int
		probes         int
		err            error
	}
	outs := make([]clientOut, clients)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.lat = make([]float64, 0, 1<<16)
			for i := c; time.Now().Before(deadline); i += clients {
				idx := i % len(queries)
				o.attempted++
				span := -1
				if tr != nil {
					span = tr.begin("client.query", -1)
				}
				t0 := time.Now()
				res, err := cl.Query(ctx, queries[idx])
				d := time.Since(t0)
				if tr != nil {
					tr.end(span)
				}
				if err != nil {
					o.bad++
					if o.err == nil {
						o.err = err
					}
					continue
				}
				o.lat = append(o.lat, ms(d))
				if idx%probeEvery == 0 {
					o.probes++
				}
				check(idx, res)
			}
		}(c)
	}
	wg.Wait()
	out := &loopResult{elapsed: time.Since(start)}
	for _, o := range outs {
		out.lat = append(out.lat, o.lat...)
		out.probes += o.probes
		ops.attempted += o.attempted
		ops.failed += o.bad
		if o.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: read failed:", o.err)
		}
	}
	if len(out.lat) == 0 {
		return nil, fmt.Errorf("no read succeeded")
	}
	return out, nil
}
