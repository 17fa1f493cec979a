package oreo

import (
	"math"
	"testing"

	"oreo/internal/sim"
)

// TestReorganizedOnlyOnRealSwitch is the regression test for
// Decision.Reorganized: the policy can surface a target layout equal to
// the one already serving (e.g. switching back to the serving layout
// while a delayed reorganization is in flight), and that must not be
// reported as a reorganization — Reorganized has to track the switches
// counter exactly.
func TestReorganizedOnlyOnRealSwitch(t *testing.T) {
	ds := buildEventsTable(t, 400)
	opt, err := New(ds, Config{
		Alpha: 10, Partitions: 4, InitialSort: []string{"ts"}, ReorgDelay: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := opt.CurrentLayout()
	b := NewZOrderGenerator(1, "user").Generate(ds, nil, 4)
	if a.Name == b.Name {
		t.Fatalf("fixture layouts share a name: %s", a.Name)
	}

	// No decision: no reorganization.
	if opt.applyTarget(nil) {
		t.Error("applyTarget(nil) reported a switch")
	}
	// Real decision away from the serving layout.
	if !opt.applyTarget(b) {
		t.Error("switch to a different layout not reported")
	}
	if opt.PendingLayout() != b {
		t.Fatal("switch did not become pending under ReorgDelay")
	}
	// The policy targets the serving layout again while the delayed swap
	// is still in flight: target != nil but it is NOT a reorganization,
	// and the abandoned pending swap must not land later.
	if opt.applyTarget(a) {
		t.Error("target equal to serving layout reported as a switch")
	}
	if opt.PendingLayout() != nil {
		t.Error("abandoned pending reorganization was not cancelled")
	}
	for i := 0; i < 5; i++ {
		opt.applyTarget(nil)
	}
	if opt.CurrentLayout() != a {
		t.Errorf("serving layout drifted to %s after cancelled swap", opt.CurrentLayout().Name)
	}
	if got := opt.Stats().Reorganizations; got != 1 {
		t.Errorf("Reorganizations = %d, want 1", got)
	}
}

// TestReorganizedMatchesSwitchCounter drives the full public path and
// checks the per-decision flags sum to the aggregate counter.
func TestReorganizedMatchesSwitchCounter(t *testing.T) {
	ds := buildEventsTable(t, 4000)
	for _, delay := range []int{0, 7} {
		opt, err := New(ds, Config{
			Alpha: 4, Partitions: 8, WindowSize: 40, Period: 40,
			InitialSort: []string{"ts"}, Seed: 11, ReorgDelay: delay,
		})
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for i := 0; i < 4000; i++ {
			var q Query
			switch (i / 400) % 2 {
			case 0:
				lo := int64(i % 3000)
				q = Query{ID: i, Preds: []Predicate{IntRange("ts", lo, lo+200)}}
			default:
				q = Query{ID: i, Preds: []Predicate{StrEq("user", "alice")}}
			}
			if opt.ProcessQuery(q).Reorganized {
				flagged++
			}
		}
		if got := opt.Stats().Reorganizations; got != flagged {
			t.Errorf("delay=%d: Reorganizations=%d but %d decisions flagged", delay, got, flagged)
		}
		if flagged == 0 {
			t.Errorf("delay=%d: workload drove no switches; regression test is vacuous", delay)
		}
	}
}

// TestSimRunMatchesOptimizer holds the paper harness and the serving
// optimizer to one decision loop: sim.Run driving an optimizer's own
// policy must serve the same layout at the same cost on every query as
// ProcessQuery does, bit for bit, with and without a reorganization
// delay. The delayed run must include swaps the policy abandoned
// mid-delay — the case where the two loops used to disagree.
func TestSimRunMatchesOptimizer(t *testing.T) {
	ds := buildEventsTable(t, 4000)
	qs := make([]Query, 4000)
	for i := range qs {
		if (i/100)%2 == 0 {
			lo := int64(i % 3000)
			qs[i] = Query{ID: i, Preds: []Predicate{IntRange("ts", lo, lo+200)}}
		} else {
			qs[i] = Query{ID: i, Preds: []Predicate{StrEq("user", "alice")}}
		}
	}
	for _, delay := range []int{0, 80} {
		cfg := Config{
			Alpha: 3, Partitions: 8, WindowSize: 40, Period: 40,
			InitialSort: []string{"ts"}, Seed: 11, ReorgDelay: delay,
		}
		served, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var curve []float64
		cum, reorg, aborted := 0.0, 0.0, 0
		for _, q := range qs {
			pending, serving := served.PendingLayout(), served.CurrentLayout()
			d := served.ProcessQuery(q)
			if d.Reorganized {
				reorg += cfg.Alpha
			} else if pending != nil && served.PendingLayout() == nil && served.CurrentLayout() == serving {
				aborted++
			}
			cum += d.Cost
			curve = append(curve, cum+reorg)
		}

		simmed, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run(qs, simmed.pol, sim.Config{Alpha: cfg.Alpha, Delay: delay, CurveStride: 1})

		st := served.Stats()
		if res.Switches != st.Reorganizations || res.Switches == 0 {
			t.Errorf("delay=%d: sim.Run switches %d, Optimizer %d", delay, res.Switches, st.Reorganizations)
		}
		if math.Float64bits(res.QueryCost) != math.Float64bits(st.QueryCost) {
			t.Errorf("delay=%d: sim.Run query cost %v, Optimizer %v", delay, res.QueryCost, st.QueryCost)
		}
		if res.FinalLayout != served.CurrentLayout().Name {
			t.Errorf("delay=%d: sim.Run ends on %s, Optimizer on %s", delay, res.FinalLayout, served.CurrentLayout().Name)
		}
		for i := range curve {
			if math.Float64bits(res.Curve[i]) != math.Float64bits(curve[i]) {
				t.Fatalf("delay=%d: cumulative cost diverges at query %d: sim.Run %v, Optimizer %v", delay, i, res.Curve[i], curve[i])
			}
		}
		if delay > 0 && aborted == 0 {
			t.Errorf("delay=%d: no delayed swap was abandoned; the check is vacuous", delay)
		}
		t.Logf("delay=%d: %d switches, %d abandoned swaps", delay, res.Switches, aborted)
	}
}
