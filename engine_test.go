package oreo

import (
	"math"
	"math/rand"
	"testing"
)

// engineWorkload is a deterministic mixed query stream long enough to
// cross several candidate-generation periods, so the engines under
// test actually reorganize.
func engineWorkload(n int) []Query {
	rng := rand.New(rand.NewSource(21))
	users := []string{"alice", "bob", "carol", "dave"}
	qs := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			lo := rng.Int63n(1800)
			qs = append(qs, Query{ID: i, Preds: []Predicate{IntRange("ts", lo, lo+150)}})
		} else {
			qs = append(qs, Query{ID: i, Preds: []Predicate{StrEq("user", users[rng.Intn(len(users))])}})
		}
	}
	return qs
}

// TestEngineImplementationsAgree drives the identical workload through
// both Engine implementations — Optimizer and a MultiOptimizer table
// shard — with the same configuration and seed, purely through the
// interface. They must make bit-identical decisions: the interface is
// one serving surface, not two subtly different optimizers. Along the
// way the Optimizer's Snapshot, the value serving hosts publish to
// readers, must agree with its own Engine reads after every query.
func TestEngineImplementationsAgree(t *testing.T) {
	ds := buildEventsTable(t, 2000)
	cfg := Config{
		Alpha: 12, Partitions: 16, WindowSize: 50, Period: 50,
		InitialSort: []string{"ts"}, Seed: 7,
	}

	engines := map[string]Engine{}

	seq, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	engines["Optimizer"] = seq

	m := NewMulti()
	if err := m.AddTable("events", ds, cfg); err != nil {
		t.Fatal(err)
	}
	sharded := m.Engine("events")
	if sharded == nil {
		t.Fatal("registered table has no engine")
	}
	engines["MultiOptimizer shard"] = sharded
	if m.Engine("nope") != nil {
		t.Error("unregistered table returned a non-nil engine")
	}

	type run struct {
		costs   []float64
		layouts []string
		stats   Stats
	}
	runs := map[string]run{}
	for name, e := range engines {
		var r run
		for i, q := range engineWorkload(300) {
			dec := e.ProcessQuery(q)
			if opt, ok := e.(*Optimizer); ok {
				snap := opt.Snapshot()
				if snap.Serving != opt.CurrentLayout() || snap.Pending != opt.PendingLayout() || snap.Stats != opt.Stats() {
					t.Fatalf("query %d: snapshot %+v disagrees with the engine reads", i, snap)
				}
				if c := snap.CostQuery(q); math.Float64bits(c.Cost) != math.Float64bits(dec.Cost) || c.Layout != dec.Layout {
					t.Fatalf("query %d: snapshot cost %v on %s, decision %v on %s", i, c.Cost, c.Layout.Name, dec.Cost, dec.Layout.Name)
				}
			}
			r.costs = append(r.costs, dec.Cost)
			r.layouts = append(r.layouts, dec.Layout.Name)
		}
		if e.CurrentLayout() == nil {
			t.Fatalf("%s: nil current layout after workload", name)
		}
		r.stats = e.Stats()
		runs[name] = r
	}

	ref := runs["Optimizer"]
	if ref.stats.Reorganizations == 0 {
		t.Fatal("workload never reorganized; the agreement check is vacuous")
	}
	for name, r := range runs {
		if r.stats != ref.stats {
			t.Errorf("%s stats %+v != Optimizer stats %+v", name, r.stats, ref.stats)
		}
		for i := range ref.costs {
			if r.costs[i] != ref.costs[i] || r.layouts[i] != ref.layouts[i] {
				t.Fatalf("%s diverges at query %d: (%v, %s) vs (%v, %s)",
					name, i, r.costs[i], r.layouts[i], ref.costs[i], ref.layouts[i])
			}
		}
	}
}
