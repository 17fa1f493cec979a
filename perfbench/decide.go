package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"oreo"
	"oreo/internal/datagen"
	"oreo/internal/exec"
	"oreo/internal/layout"
	"oreo/internal/query"
	"oreo/internal/serve"
	"oreo/internal/table"
)

// The decide workload: one sender feeds a drifting TPC-H stream into
// one leader table through Core.Observe, resending any observation the
// full queue refuses, so the decision loop sees every query in order
// and its decisions repeat exactly.
const (
	decideRows = 50000
	// decidePasses rounds over all 13 templates, decideSegment queries
	// per template run: 35,100 observations in 117 template segments.
	decidePasses  = 9
	decideSegment = 300
	// decideSetups is how many times a run sets a table up, at least.
	decideSetups = 9
	// decideAlpha is the relative reorganization cost (the paper's default).
	decideAlpha = 80
	// optimizerSeed drives the optimizer's own randomness. It is a
	// setting of the program, fixed, so that the workload seed changes
	// only the inputs.
	optimizerSeed = 1
	// resendWait is how long the sender backs off after the queue
	// refused an observation.
	resendWait = 100 * time.Microsecond
	// drainTimeout bounds the wait for the decision loop to process
	// what was sent.
	drainTimeout = 120 * time.Second
)

// decisionLog is what the decision hook saw, one entry per observation
// in processing order.
type decisionLog struct {
	costs    []float64
	serving  []*oreo.Layout
	switched []bool
	// at is when each decision was published.
	at   []time.Time
	done chan struct{}
}

// decideTable is one leader table set up for a round.
type decideTable struct {
	core *serve.Core
	log  *decisionLog
	gen  *timedGenerator // nil when untraced
}

func runDecide(opts options, rep *report) error {
	rng := rand.New(rand.NewSource(opts.seed))
	ds := datagen.GenerateTPCH(decideRows, rng)
	stream := driftStream(decidePasses, decideSegment, rng)
	n := len(stream)
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	reads, obs := rep.op("reads"), rep.op("observations")

	var setups []float64
	firstWant := bruteForce(ds, stream[0], 0, ds.NumRows())
	setup := func() (*decideTable, error) {
		// Collect the previous table's garbage first, so set-up time is
		// the set-up's own work.
		runtime.GC()
		t0 := time.Now()
		dt, first, err := setupDecide(ds, stream, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		reads.attempted++
		rep.check(first.equal(firstWant), "decide: execute of query 0 returned %v, brute force %v", first, firstWant)
		return dt, nil
	}
	for i := 0; i < decideSetups-1; i++ {
		dt, err := setup()
		if err != nil {
			return err
		}
		dt.core.Close()
	}

	var (
		rates, gaps []float64
		first       *decideOutcome
		last        *decideTable
		measured    time.Duration
		resends     int
		heapMB      float64
		roundSpanID = -1
	)
	for first == nil || measured.Seconds() < opts.seconds {
		dt, err := setup()
		if err != nil {
			return err
		}
		if tr != nil {
			roundSpanID = tr.begin("serve.decide_round", -1)
			dt.gen.parent = roundSpanID
		}
		out, err := feed(dt, stream, obs)
		if tr != nil {
			tr.end(roundSpanID)
		}
		if err != nil {
			dt.core.Close()
			return err
		}
		measured += out.elapsed
		resends += out.resends
		rates = append(rates, float64(n-1)/out.elapsed.Seconds())
		gaps = append(gaps, out.gapMS)
		if first == nil {
			first = out
			checkDecisions(rep, ds, stream, out)
			// Keep costs and names only: the layouts themselves stay
			// pinned by the table that is serving now, not by a closed one.
			first.log = &decisionLog{costs: out.log.costs}
		} else {
			checkRepeat(rep, first, out)
		}
		if last != nil {
			last.core.Close()
		}
		last = dt
		heapMB = liveHeapMB()
	}
	defer last.core.Close()
	total := first.stats.QueryCost + first.stats.ReorgCost
	fmt.Fprintf(os.Stderr, "decide: %d observations, %d rounds, %d switches, %d phases, max |S| %d, total cost %.6f\n",
		n, len(rates), first.stats.Reorganizations, first.stats.Phases, first.stats.MaxStates, total)

	e2e := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"live_heap_mb": {heapMB, "MB"},
		"ops_per_s":    {median(rates), "1/s"},
		"op_p50_ms":    {median(gaps), "ms"},
		"total_cost":   {total, "units"},
	}
	if !opts.trace {
		rep.metrics = e2e
		return nil
	}
	printTracedE2E("decide", e2e)
	return decideLayers(opts, rep, tr, ds, stream, last, first, median(rates), resends)
}

// setupDecide builds the optimizer (its default arrival-time layout),
// the serving core, and the execution store — by answering the
// stream's first query as an executed read, which is also the first
// observation the decision loop sees. It returns that read's answer.
func setupDecide(ds *oreo.Dataset, stream []oreo.Query, tr *tracer) (*decideTable, aggAnswer, error) {
	cfg := oreo.Config{Alpha: decideAlpha, InitialSort: []string{timeColumn}, Seed: optimizerSeed}
	var gen *timedGenerator
	if tr != nil {
		gen = &timedGenerator{inner: layout.NewQdTreeGenerator(), tr: tr, parent: -1}
		cfg.Generator = gen
	}
	m := oreo.NewMulti()
	if err := m.AddTable(tableName, ds, cfg); err != nil {
		return nil, aggAnswer{}, fmt.Errorf("building optimizer: %w", err)
	}
	core, err := serve.NewCore(m, serve.CoreConfig{})
	if err != nil {
		return nil, aggAnswer{}, fmt.Errorf("building core: %w", err)
	}
	n := len(stream)
	log := &decisionLog{
		costs:    make([]float64, n),
		serving:  make([]*oreo.Layout, n),
		switched: make([]bool, n),
		at:       make([]time.Time, n),
		done:     make(chan struct{}),
	}
	core.SetDecisionHook(func(_ string, upd serve.DecisionUpdate) {
		i := int(upd.Epoch) - 1
		if i < 0 || i >= n {
			return
		}
		log.costs[i], log.serving[i], log.switched[i] = upd.Cost, upd.Snapshot.Serving, upd.Switched
		log.at[i] = time.Now()
		if i == n-1 {
			close(log.done)
		}
	})
	res, err := core.Answer(context.Background(), executeRequest(stream[0]))
	if err != nil {
		core.Close()
		return nil, aggAnswer{}, fmt.Errorf("executing the first query: %w", err)
	}
	if !res[0].Observed {
		core.Close()
		return nil, aggAnswer{}, fmt.Errorf("the first query was not observed")
	}
	ans, err := serveAnswer(res[0])
	if err != nil {
		core.Close()
		return nil, aggAnswer{}, err
	}
	return &decideTable{core: core, log: log, gen: gen}, ans, nil
}

// decideOutcome is one round's result.
type decideOutcome struct {
	elapsed time.Duration
	// gapMS is the median time between consecutive published decisions
	// while the sender kept the queue non-empty: the time one
	// observation takes through the decision loop.
	gapMS   float64
	resends int
	log     *decisionLog
	stats   oreo.Stats
	// names is the serving layout's name per observation, kept after
	// the round's table is gone.
	names []string
}

// feed sends stream[1:] (query 0 arrived with the set-up read) and
// waits until the decision loop has processed all of it.
func feed(dt *decideTable, stream []oreo.Query, obs *opCount) (*decideOutcome, error) {
	out := &decideOutcome{log: dt.log}
	start := time.Now()
	for _, q := range stream[1:] {
		obs.attempted++
		for {
			ok, err := dt.core.Observe(tableName, q)
			if err != nil {
				obs.failed++
				return nil, fmt.Errorf("observing query %d: %w", q.ID, err)
			}
			if ok {
				break
			}
			out.resends++
			time.Sleep(resendWait)
		}
	}
	select {
	case <-dt.log.done:
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("decision loop did not process %d observations within %s", len(stream), drainTimeout)
	}
	out.elapsed = time.Since(start)
	gaps := make([]float64, 0, len(stream))
	for i := 2; i < len(stream); i++ {
		gaps = append(gaps, ms(dt.log.at[i].Sub(dt.log.at[i-1])))
	}
	out.gapMS = median(gaps)
	snap, ok := dt.core.Snapshot(tableName)
	if !ok {
		return nil, fmt.Errorf("no snapshot for %q", tableName)
	}
	out.stats = snap.Stats
	out.names = make([]string, len(stream))
	for i, l := range dt.log.serving {
		out.names[i] = l.Name
	}
	return out, nil
}

// checkDecisions judges one round against the interpreted reference:
// every observation's cost is query.FractionScanned on the layout that
// served it, the total is their sum plus alpha per switch, and no
// schedule over the layouts the run served could have paid less than
// the offline optimum.
func checkDecisions(rep *report, ds *oreo.Dataset, stream []oreo.Query, out *decideOutcome) {
	schema := ds.Schema()
	n := len(stream)
	st := out.stats
	rep.check(st.Queries == n, "decide: optimizer processed %d queries, want %d", st.Queries, n)

	var states []*oreo.Layout
	stateOf := make(map[*oreo.Layout]int)
	refSum, switches, mismatches := 0.0, 0, 0
	for i, q := range stream {
		lay := out.log.serving[i]
		if _, ok := stateOf[lay]; !ok {
			stateOf[lay] = len(states)
			states = append(states, lay)
		}
		ref := query.FractionScanned(schema, lay.Part, q)
		if math.Float64bits(ref) != math.Float64bits(out.log.costs[i]) {
			if mismatches == 0 {
				rep.check(false, "decide: observation %d cost %v on %s, reference %v", i, out.log.costs[i], lay.Name, ref)
			}
			mismatches++
		}
		refSum += ref
		if out.log.switched[i] {
			switches++
		}
	}
	rep.check(mismatches == 0, "decide: %d observation costs differ from the reference", mismatches)
	rep.check(switches == st.Reorganizations, "decide: hook saw %d switches, stats report %d", switches, st.Reorganizations)
	total := st.QueryCost + st.ReorgCost
	want := refSum + decideAlpha*float64(switches)
	rep.check(math.Float64bits(total) == math.Float64bits(want),
		"decide: total cost %v, reference sum plus alpha per switch %v", total, want)

	costs := make([][]float64, n)
	for i, q := range stream {
		row := make([]float64, len(states))
		for s, lay := range states {
			row[s] = query.FractionScanned(schema, lay.Part, q)
		}
		costs[i] = row
	}
	opt := offlineOptimum(costs, decideAlpha, stateOf[out.log.serving[0]])
	rep.check(withinOptimum(total, opt), "decide: total cost %v is below the offline optimum %v", total, opt)
	fmt.Fprintf(os.Stderr, "decide: offline optimum over %d served layouts %.6f (realized/optimum %.4f)\n", len(states), opt, total/opt)
}

// checkRepeat demands that a later round of the same inputs made
// exactly the first round's decisions.
func checkRepeat(rep *report, first, out *decideOutcome) {
	a, b := first.stats, out.stats
	rep.check(math.Float64bits(a.QueryCost) == math.Float64bits(b.QueryCost) && a.Reorganizations == b.Reorganizations,
		"decide: repeated round cost %v with %d switches, first round %v with %d", b.QueryCost, b.Reorganizations, a.QueryCost, a.Reorganizations)
	for i := range first.log.costs {
		if math.Float64bits(first.log.costs[i]) != math.Float64bits(out.log.costs[i]) || first.names[i] != out.names[i] {
			rep.check(false, "decide: repeated round diverged at observation %d", i)
			return
		}
	}
}

// timedGenerator wraps the candidate generator the optimizer calls,
// recording a span per call and keeping each generated layout for the
// partitioning replay.
type timedGenerator struct {
	inner oreo.Generator
	tr    *tracer
	// parent is the span generation calls are recorded under.
	parent int

	mu      sync.Mutex
	times   []time.Duration
	layouts []*oreo.Layout
}

func (g *timedGenerator) Name() string { return g.inner.Name() }

func (g *timedGenerator) Generate(d *table.Dataset, qs []query.Query, k int) *layout.Layout {
	var l *layout.Layout
	dur := g.tr.timed("layout.generate", g.parent, func() { l = g.inner.Generate(d, qs, k) })
	g.mu.Lock()
	g.times = append(g.times, dur)
	g.layouts = append(g.layouts, l)
	g.mu.Unlock()
	return l
}

// snapshot returns the calls recorded so far.
func (g *timedGenerator) snapshot() ([]time.Duration, []*oreo.Layout) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]time.Duration(nil), g.times...), append([]*oreo.Layout(nil), g.layouts...)
}

// decideStride picks the stream sample the traced layer pass walks:
// every decideStride-th observation, 1,300 of the 35,100.
const decideStride = 27

// decideLayers is the traced run's per-layer breakdown of the decision
// path: candidate generation as the serving core ran it, partitioning
// and store builds replayed on the layouts it produced and switched to,
// the same stream through the library optimizer with every ProcessQuery
// timed, and a sample of the stream through the read path and a
// follower's bootstrap on the final layout.
func decideLayers(opts options, rep *report, tr *tracer, ds *oreo.Dataset, stream []oreo.Query, dt *decideTable, first *decideOutcome, rate float64, resends int) error {
	n := len(stream)
	genTimes, generated := dt.gen.snapshot()
	// Every round makes the same decisions; the last round's table and
	// generator are the ones still alive.
	replay := tr.begin("replay", -1)
	var partTimes []float64
	busy := 0.0
	for _, l := range generated {
		var err error
		d := tr.timed("table.partition", replay, func() {
			_, err = table.BuildPartitioning(ds, l.Part.Assign, l.Part.NumPartitions)
		})
		if err != nil {
			return fmt.Errorf("replaying partitioning: %w", err)
		}
		partTimes = append(partTimes, ms(d))
		busy += d.Seconds()
	}
	var storeTimes []float64
	for i, sw := range dt.log.switched {
		if !sw {
			continue
		}
		l := dt.log.serving[i]
		var err error
		d := tr.timed("exec.store_build", replay, func() { _, err = exec.NewStore(ds, l.Part) })
		if err != nil {
			return fmt.Errorf("replaying store build: %w", err)
		}
		storeTimes = append(storeTimes, ms(d))
	}
	tr.end(replay)

	// The library path: the same configuration and stream, no serving.
	gen := &timedGenerator{inner: layout.NewQdTreeGenerator(), tr: tr}
	opt, err := oreo.New(ds, oreo.Config{Alpha: decideAlpha, InitialSort: []string{timeColumn}, Seed: optimizerSeed, Generator: gen})
	if err != nil {
		return fmt.Errorf("building library optimizer: %w", err)
	}
	lib := tr.begin("oreo.library_round", -1)
	var steps, admits []float64
	mismatch := -1
	libStart := time.Now()
	for i, q := range stream {
		calls := len(gen.times)
		id := tr.begin("oreo.process_query", lib)
		gen.parent = id
		d := opt.ProcessQuery(q)
		dur := tr.end(id)
		if len(gen.times) > calls {
			admits = append(admits, ms(dur-gen.times[len(gen.times)-1]))
		} else {
			steps = append(steps, us(dur))
		}
		if mismatch < 0 && math.Float64bits(d.Cost) != math.Float64bits(first.log.costs[i]) {
			mismatch = i
		}
	}
	libElapsed := time.Since(libStart)
	tr.end(lib)
	rep.check(mismatch < 0, "decide: library optimizer diverged from the serving core at observation %d", mismatch)

	genMS := make([]float64, len(genTimes))
	genBusy := 0.0
	for i, d := range genTimes {
		genMS[i] = ms(d)
		genBusy += d.Seconds()
	}
	st := first.stats
	rep.set("layout.candgen_ms", "ms", median(genMS))
	rep.set("table.partition_ms", "ms", median(partTimes))
	rep.set("exec.store_build_ms", "ms", median(storeTimes))
	rep.set("mts.step_us", "us", median(steps))
	rep.set("policy.states_max", "count", float64(st.MaxStates))

	var sample []oreo.Query
	for i := 0; i < n; i += decideStride {
		sample = append(sample, stream[i])
	}
	if err := layerPass(rep, tr, "decide", ds, dt.log.serving[n-1], sample); err != nil {
		return err
	}

	servePerObs := 1 / rate
	libPerObs := libElapsed.Seconds() / float64(n)
	note("decide", "layout.candgen_calls", "count", float64(len(genTimes)))
	note("decide", "layout.candgen_busy_s", "s", genBusy)
	note("decide", "table.partition_busy_s", "s", busy)
	note("decide", "manager.admit_ms", "ms", median(admits))
	note("decide", "serve.decide_overhead_us", "us", (servePerObs-libPerObs)*1e6)
	note("decide", "serve.queue_full_resends", "count", float64(resends))
	note("decide", "mts.switches", "count", float64(st.Reorganizations))
	note("decide", "mts.phases", "count", float64(st.Phases))
	return tr.write(opts.spanDir, fmt.Sprintf("decide-seed%d.jsonl", opts.seed), os.Stderr)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printTracedE2E prints a traced run's end-to-end figures, which differ
// from the untraced run's by the tracing overhead.
func printTracedE2E(workload string, e2e map[string]metric) {
	for _, name := range sortedKeys(e2e) {
		fmt.Fprintf(os.Stderr, "traced %s: %s = %.6g %s\n", workload, name, e2e[name].Value, e2e[name].Unit)
	}
}
