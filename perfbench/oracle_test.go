package main

import (
	"math"
	"math/rand"
	"testing"

	"oreo"
	"oreo/client"
	"oreo/internal/mts"
	"oreo/internal/table"
)

// tinyRows is a five-row table small enough to evaluate by hand:
//
//	row  l_quantity  o_orderdate  price  flag
//	0    1           100          1.5    A
//	1    2           200          NaN    B
//	2    3           300          3.5    A
//	3    4           400          4.5    C
//	4    5           500          0.5    B
func tinyRows() *oreo.Dataset {
	schema := oreo.NewSchema(
		oreo.Column{Name: "l_quantity", Type: oreo.Int64},
		oreo.Column{Name: "o_orderdate", Type: oreo.Int64},
		oreo.Column{Name: "price", Type: oreo.Float64},
		oreo.Column{Name: "flag", Type: oreo.String},
	)
	b := oreo.NewDatasetBuilder(schema, 5)
	prices := []float64{1.5, math.NaN(), 3.5, 4.5, 0.5}
	flags := []string{"A", "B", "A", "C", "B"}
	for i := 0; i < 5; i++ {
		b.AppendRow(oreo.Int(int64(i+1)), oreo.Int(int64(100*(i+1))), oreo.Float(prices[i]), oreo.Str(flags[i]))
	}
	return b.Build()
}

func ans(count int64, sums ...int64) aggAnswer { return aggAnswer{count: count, sums: sums} }

func TestBruteForceHandComputed(t *testing.T) {
	ds := tinyRows()
	cases := []struct {
		name     string
		preds    []oreo.Predicate
		from, to int
		want     aggAnswer
	}{
		{"int range and IN", []oreo.Predicate{oreo.IntRange("l_quantity", 2, 4), oreo.StrIn("flag", "A", "B")}, 0, 5, ans(2, 5, 500)},
		{"float bound skips NaN", []oreo.Predicate{oreo.FloatGE("price", 1)}, 0, 5, ans(3, 8, 800)},
		{"no match", []oreo.Predicate{oreo.StrEq("flag", "Z")}, 0, 5, ans(0, 0, 0)},
		{"NaN fails an upper bound too", []oreo.Predicate{oreo.IntLE("o_orderdate", 250), oreo.FloatLE("price", 2)}, 0, 5, ans(1, 1, 100)},
		{"row range", []oreo.Predicate{oreo.FloatGE("price", 1)}, 2, 5, ans(2, 7, 700)},
		{"unknown column matches nothing", []oreo.Predicate{oreo.IntGE("nope", 0)}, 0, 5, ans(0, 0, 0)},
	}
	for _, c := range cases {
		got := bruteForce(ds, oreo.Query{Preds: c.preds}, c.from, c.to)
		if !got.equal(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAnswerEqualityRejectsPerturbation(t *testing.T) {
	want := ans(2, 5, 500)
	for _, bad := range []aggAnswer{ans(3, 5, 500), ans(2, 6, 500), ans(2, 5, 499), ans(2, 5)} {
		if want.equal(bad) {
			t.Errorf("%v accepted as equal to %v", bad, want)
		}
	}
	if got := ans(1, 2, 3).plus(ans(4, 5, 6)); !got.equal(ans(5, 7, 9)) {
		t.Errorf("plus = %v, want count=5 sums=[7 9]", got)
	}
}

func TestAnswerOfShape(t *testing.T) {
	good := []client.AggregateResult{
		{Op: "count", Type: "int64", Valid: true, ValueI: 2},
		{Op: "sum", Col: "l_quantity", Type: "int64", Valid: true, ValueI: 5},
		{Op: "sum", Col: "o_orderdate", Type: "int64", Valid: true, ValueI: 500},
	}
	got, err := answerOf(2, good)
	if err != nil || !got.equal(ans(2, 5, 500)) {
		t.Fatalf("answerOf = %v, %v; want count=2 sums=[5 500]", got, err)
	}
	if _, err := answerOf(3, good); err == nil {
		t.Error("a count that disagrees with the matched rows was accepted")
	}
	bad := append([]client.AggregateResult(nil), good...)
	bad[2].Valid = false
	if _, err := answerOf(2, bad); err == nil {
		t.Error("an invalid sum was accepted")
	}
	if _, err := answerOf(2, good[:2]); err == nil {
		t.Error("a missing aggregate was accepted")
	}
}

func TestRefCostHandComputed(t *testing.T) {
	ds := tinyRows()
	part, err := table.BuildPartitioning(ds, []int{0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := oreo.Query{Preds: []oreo.Predicate{oreo.IntLE("l_quantity", 2)}}
	// Only partition 0 (rows 0-1) can hold l_quantity <= 2.
	if got := refCost(part, ds.Schema(), q, 0); got != 0.4 {
		t.Errorf("cost without a tail = %v, want 2/5", got)
	}
	if got := refCost(part, ds.Schema(), q, 3); got != 0.625 {
		t.Errorf("cost with a 3-row tail = %v, want (2+3)/(5+3)", got)
	}
	if refCost(part, ds.Schema(), q, 0) == 0.4+1e-12 {
		t.Error("a perturbed cost compared equal")
	}
}

func TestOfflineOptimumHandComputed(t *testing.T) {
	// Four queries cheap in state 1, then one cheap in state 0.
	costs := [][]float64{{1, 0}, {1, 0}, {1, 0}, {1, 0}, {0, 1}}
	cases := []struct {
		alpha float64
		start int
		want  float64
	}{
		{2, 0, 3},   // move to 1 at once (2), then pay the last query there (1)
		{10, 0, 4},  // moving never pays: stay in 0
		{2, 1, 1},   // start in 1 and stay
		{0.5, 0, 1}, // move to 1, then back to 0 for the last query
	}
	for _, c := range cases {
		if got := offlineOptimum(costs, c.alpha, c.start); got != c.want {
			t.Errorf("alpha=%v start=%d: optimum %v, want %v", c.alpha, c.start, got, c.want)
		}
	}
	if withinOptimum(2.5, 3) {
		t.Error("a realized cost below the optimum was accepted")
	}
	if !withinOptimum(3, 3) || !withinOptimum(4, 3) {
		t.Error("a feasible realized cost was rejected")
	}
}

func TestOfflineOptimumAgreesWithProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n, steps := 1+rng.Intn(5), 1+rng.Intn(40)
		costs := make([][]float64, steps)
		for i := range costs {
			costs[i] = make([]float64, n)
			for s := range costs[i] {
				costs[i][s] = float64(rng.Intn(100)) / 100
			}
		}
		alpha := float64(1 + rng.Intn(5))
		start := rng.Intn(n)
		want, _ := mts.OfflineOptimal(costs, alpha, start)
		if got := offlineOptimum(costs, alpha, start); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: optimum %v, program's DP %v", trial, got, want)
		}
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	kids := []span{{StartNS: 10, EndNS: 30}, {StartNS: 20, EndNS: 40}, {StartNS: 90, EndNS: 120}, {StartNS: 50, EndNS: -1}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40 (10-40 and 90-100)", got)
	}
}

func TestQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("quantile(0.5) = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.99); math.Abs(got-4.96) > 1e-12 {
		t.Errorf("quantile(0.99) = %v, want 4.96", got)
	}
}
