package serve

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"oreo"
	"oreo/internal/exec"
)

// TestExecuteConcurrentDuringStoreSwap is the execution layer's -race
// stress: many goroutines execute queries against one shard — all
// scanning the same exec.Store through its atomic pointer, with the
// scan worker pool fanning out inside each request — while the decision
// loop reorganizes underneath them and swaps rebuilt stores in. Every
// answer must still match the row oracle exactly: a swap may change
// which layout answered, never what the query matched. Run with -race;
// a scan touching a store mid-rebuild, or pooled scratch shared across
// concurrent scans, trips the detector.
func TestExecuteConcurrentDuringStoreSwap(t *testing.T) {
	ds, s, _ := newExecFixture(t, 2000, oreo.Config{
		Alpha: 2, WindowSize: 20, Partitions: 16,
		InitialSort: []string{"order_ts"}, Seed: 5,
	}, Config{QueueSize: 512, ScanParallelism: 4})
	core := s.Core()

	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	type oracle struct {
		req  QueryRequest
		rows int
		sum  float64
	}
	oracles := make([]oracle, 0, len(statuses)+2)
	for _, st := range statuses {
		rows, sum := refCount(ds, oreo.Query{Preds: []oreo.Predicate{oreo.StrEq("status", st)}})
		oracles = append(oracles, oracle{
			req: QueryRequest{
				Table: "orders", Execute: true,
				Preds: []PredicateJSON{{Col: "status", In: []string{st}}},
				Aggs:  []AggregateJSON{{Op: "count"}, {Op: "sum", Col: "amount"}},
			},
			rows: rows, sum: sum,
		})
	}
	for _, span := range [][2]int64{{100, 700}, {1200, 1900}} {
		q := oreo.Query{Preds: []oreo.Predicate{oreo.IntRange("order_ts", span[0], span[1])}}
		rows, sum := refCount(ds, q)
		oracles = append(oracles, oracle{
			req: QueryRequest{
				Table: "orders", Execute: true,
				Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, HasHi: true, LoI: span[0], HiI: span[1]}},
				Aggs:  []AggregateJSON{{Op: "count"}, {Op: "sum", Col: "amount"}},
			},
			rows: rows, sum: sum,
		})
	}

	// Alternating the status and time-range shapes from every goroutine
	// drives the aggressive optimizer through reorganizations while the
	// scans are in flight — the decision consumer rebuilds and swaps the
	// store behind the answering requests.
	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	var failed atomic.Bool
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters && !failed.Load(); i++ {
				o := oracles[(g+i)%len(oracles)]
				results, err := core.Answer(context.Background(), o.req)
				if err != nil {
					failed.Store(true)
					errCh <- err
					return
				}
				ex := results[0].Execution
				if ex.MatchedRows != o.rows {
					failed.Store(true)
					t.Errorf("goroutine %d iter %d on layout %q: matched %d, oracle %d",
						g, i, results[0].Layout, ex.MatchedRows, o.rows)
					return
				}
				if c := ex.Aggregates[0]; c.ValueI != int64(o.rows) {
					failed.Store(true)
					t.Errorf("goroutine %d iter %d: count %d, oracle %d", g, i, c.ValueI, o.rows)
					return
				}
				if sum := ex.Aggregates[1]; math.Abs(sum.ValueF-o.sum) > 1e-6*(1+math.Abs(o.sum)) {
					failed.Store(true)
					t.Errorf("goroutine %d iter %d: sum %v, oracle %v", g, i, sum.ValueF, o.sum)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent execute failed: %v", err)
	}

	// The stress only counts if stores actually swapped under it.
	sh := core.shards["orders"]
	if v := sh.cur.Load(); v.store == nil {
		t.Fatal("no store was ever materialized")
	}
	if got := sh.executions.Load(); got < goroutines*iters/2 {
		t.Fatalf("only %d executions recorded", got)
	}
}

// TestVersionReadMostlyStress pins the published-version contract under
// the race detector: while a drifting observation stream drains through
// a shard's decision loop (reorganizing, with delayed swaps, and
// rebuilding the execution store on every landed switch), readers load
// versions lock-free and check that every one is whole — the epoch and
// the decision counter never go backwards across loads, a cost equals
// the survivor row mass of the version's own serving layout, a version
// that carries a store carries one built for that layout — while trace
// reads run alongside.
func TestVersionReadMostlyStress(t *testing.T) {
	_, s, _ := newExecFixture(t, 3000, oreo.Config{
		Alpha: 2, WindowSize: 20, Partitions: 16, ReorgDelay: 4,
		InitialSort: []string{"order_ts"}, Seed: 5, TraceCapacity: 32,
	}, Config{QueueSize: 64, ScanParallelism: 2})
	core := s.Core()
	sh := core.shards["orders"]

	// One execute materializes the store, so every later switch rebuilds
	// it inside the publish the readers race.
	if _, err := core.Answer(context.Background(), QueryRequest{
		Table: "orders", Execute: true,
		Preds: []PredicateJSON{{Col: "order_ts", HasLo: true, LoI: 1}},
	}); err != nil {
		t.Fatal(err)
	}

	const traceLen = 600
	statuses := []string{"cancelled", "delivered", "pending", "returned"}
	queries := make([]oreo.Query, traceLen)
	for i := range queries {
		if (i/100)%2 == 0 {
			lo := int64((i * 37) % 2800)
			queries[i] = oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.IntRange("order_ts", lo, lo+150)}}
		} else {
			queries[i] = oreo.Query{ID: i, Preds: []oreo.Predicate{oreo.StrEq("status", statuses[i%4])}}
		}
	}

	// The writer resends on a full queue, so every observation lands,
	// then waits for the loop to drain before releasing the readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, q := range queries {
			for {
				ok, err := core.Observe("orders", q)
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					break
				}
				runtime.Gosched()
			}
		}
		for want := int(sh.observed.Load()); sh.cur.Load().snap.Stats.Queries < want; {
			runtime.Gosched()
		}
	}()

	const readers = 6
	var wg sync.WaitGroup
	stores := make([]map[*exec.Store]bool, readers)
	for r := 0; r < readers; r++ {
		stores[r] = map[*exec.Store]bool{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			lastQueries := 0
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v := sh.cur.Load()
				if v.epoch < lastEpoch || v.snap.Stats.Queries < lastQueries {
					t.Errorf("reader %d: version went backwards: epoch %d after %d, queries %d after %d",
						r, v.epoch, lastEpoch, v.snap.Stats.Queries, lastQueries)
					return
				}
				lastEpoch, lastQueries = v.epoch, v.snap.Stats.Queries
				if v.store != nil {
					if v.store.Partitioning() != v.snap.Serving.Part {
						t.Errorf("reader %d: epoch %d pairs layout %s with a store built for another layout",
							r, v.epoch, v.snap.Serving.Name)
						return
					}
					stores[r][v.store] = true
				}

				res := sh.costOn(v, queries[(r*131+i)%traceLen])
				part := v.snap.Serving.Part
				mass := 0
				for j, pid := range res.SurvivorPartitions {
					if j > 0 && pid <= res.SurvivorPartitions[j-1] {
						t.Errorf("reader %d: survivor list not ascending: %v", r, res.SurvivorPartitions)
						return
					}
					mass += part.RowsInPartition(pid)
				}
				if want := float64(mass) / float64(part.TotalRows); math.Float64bits(res.Cost) != math.Float64bits(want) {
					t.Errorf("reader %d: cost %v disagrees with survivor row mass %v on %s", r, res.Cost, want, res.Layout)
					return
				}
				if i%16 == 0 {
					if _, err := core.Trace("orders"); err != nil {
						t.Errorf("reader %d: trace: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// The stress only counts if the loop reorganized and rebuilt the
	// store while the readers were loading versions.
	final := sh.cur.Load()
	if final.snap.Stats.Reorganizations == 0 {
		t.Fatal("decision loop never reorganized; the stress is vacuous")
	}
	seen := map[*exec.Store]bool{}
	for _, m := range stores {
		for st := range m {
			seen[st] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("readers saw %d distinct stores; no rebuild raced them", len(seen))
	}
	tr, err := core.Trace("orders")
	if err != nil || len(tr.Events) == 0 {
		t.Fatalf("trace after the run: %d events, err %v", len(tr.Events), err)
	}
}
