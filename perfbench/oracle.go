package main

import (
	"fmt"
	"math"

	"oreo"
	"oreo/client"
	"oreo/internal/query"
	"oreo/internal/serve"
)

// The oracles below judge the program's answers from the benchmark's
// own inputs. The row matcher and the offline optimum are written here
// rather than taken from the program, so a fault in the program's
// kernels, pruning or DP cannot hide behind the same fault in its check.

// aggAnswer is what an executed query must return: the number of
// matching rows and the exact sum of each of sumColumns over them.
type aggAnswer struct {
	count int64
	sums  []int64
}

// plus returns the answer over the union of two disjoint row sets.
func (a aggAnswer) plus(b aggAnswer) aggAnswer {
	out := aggAnswer{count: a.count + b.count, sums: make([]int64, len(a.sums))}
	for i := range a.sums {
		out.sums[i] = a.sums[i] + b.sums[i]
	}
	return out
}

// equal reports whether two answers agree exactly.
func (a aggAnswer) equal(b aggAnswer) bool {
	if a.count != b.count || len(a.sums) != len(b.sums) {
		return false
	}
	for i := range a.sums {
		if a.sums[i] != b.sums[i] {
			return false
		}
	}
	return true
}

func (a aggAnswer) String() string { return fmt.Sprintf("count=%d sums=%v", a.count, a.sums) }

// bruteForce evaluates q over rows [from, to) of ds one row at a time.
func bruteForce(ds *oreo.Dataset, q oreo.Query, from, to int) aggAnswer {
	schema := ds.Schema()
	cols := make([]int, len(q.Preds))
	for i, p := range q.Preds {
		ci, ok := schema.Index(p.Col)
		if !ok {
			ci = -1
		}
		cols[i] = ci
	}
	sumIdx := make([]int, len(sumColumns))
	for i, c := range sumColumns {
		sumIdx[i] = schema.MustIndex(c)
	}
	ans := aggAnswer{sums: make([]int64, len(sumColumns))}
	for r := from; r < to; r++ {
		if !matchRow(ds, q, cols, r) {
			continue
		}
		ans.count++
		for i, ci := range sumIdx {
			ans.sums[i] += ds.Int64At(ci, r)
		}
	}
	return ans
}

// matchRow reports whether row r satisfies every predicate of q; cols
// holds each predicate's column index (-1 when the schema lacks it,
// which matches nothing). Numeric bounds are inclusive and must hold
// affirmatively, so a NaN cell never satisfies a bounded float
// predicate.
func matchRow(ds *oreo.Dataset, q oreo.Query, cols []int, r int) bool {
	schema := ds.Schema()
	for i, p := range q.Preds {
		ci := cols[i]
		if ci < 0 {
			return false
		}
		switch schema.Col(ci).Type {
		case oreo.Int64:
			if len(p.In) > 0 {
				return false
			}
			v := ds.Int64At(ci, r)
			if (p.HasLo && v < p.LoI) || (p.HasHi && v > p.HiI) {
				return false
			}
		case oreo.Float64:
			if len(p.In) > 0 {
				return false
			}
			v := ds.Float64At(ci, r)
			if (p.HasLo && !(v >= p.LoF)) || (p.HasHi && !(v <= p.HiF)) {
				return false
			}
		default:
			v := ds.StringAt(ci, r)
			found := false
			for _, want := range p.In {
				if v == want {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// refCost is the interpreted reference service cost of q on part with
// deltaRows unpartitioned tail rows, which every query reads in full:
// the row mass of the partitions query.MayMatch keeps, plus the tail,
// over all rows. With no tail it is query.FractionScanned itself.
func refCost(part *oreo.Partitioning, schema *oreo.Schema, q oreo.Query, deltaRows int) float64 {
	if deltaRows == 0 {
		return query.FractionScanned(schema, part, q)
	}
	mass := 0
	for _, m := range part.Meta {
		if q.MayMatch(schema, m) {
			mass += m.NumRows
		}
	}
	return float64(mass+deltaRows) / float64(part.TotalRows+deltaRows)
}

// offlineOptimum is the least total cost any schedule over a fixed set
// of states could pay for a query sequence: costs[t][s] is query t's
// service cost in state s, every move between states costs alpha, the
// schedule starts in state start, and a move takes effect before the
// query it precedes. It is the classic O(T·n) dynamic program: a
// state's best predecessor is either itself or the cheapest state of
// the previous step plus one move.
func offlineOptimum(costs [][]float64, alpha float64, start int) float64 {
	if len(costs) == 0 {
		return 0
	}
	n := len(costs[0])
	prev := make([]float64, n)
	for s := range prev {
		prev[s] = costs[0][s]
		if s != start {
			prev[s] += alpha
		}
	}
	cur := make([]float64, n)
	for t := 1; t < len(costs); t++ {
		cheapest := math.Inf(1)
		for _, v := range prev {
			cheapest = math.Min(cheapest, v)
		}
		for s := range cur {
			cur[s] = costs[t][s] + math.Min(prev[s], cheapest+alpha)
		}
		prev, cur = cur, prev
	}
	best := math.Inf(1)
	for _, v := range prev {
		best = math.Min(best, v)
	}
	return best
}

// withinOptimum reports whether a realized schedule cost is feasible
// against the offline optimum over the same states: never below it,
// allowing only the rounding a different summation order can cause.
func withinOptimum(realized, optimum float64) bool {
	return realized >= optimum*(1-1e-12)
}

// answerOf reads an executed result's aggregates back into an
// aggAnswer, demanding the shape executeRequest asked for: the count
// first (equal to the matched-row count), then one valid int64 sum per
// sum column.
func answerOf(matched int, aggs []client.AggregateResult) (aggAnswer, error) {
	if len(aggs) != 1+len(sumColumns) {
		return aggAnswer{}, fmt.Errorf("got %d aggregates, want %d", len(aggs), 1+len(sumColumns))
	}
	if c := aggs[0]; c.Op != "count" || c.Type != "int64" || !c.Valid || c.ValueI != int64(matched) {
		return aggAnswer{}, fmt.Errorf("count aggregate %+v disagrees with %d matched rows", c, matched)
	}
	ans := aggAnswer{count: aggs[0].ValueI, sums: make([]int64, len(sumColumns))}
	for i, col := range sumColumns {
		a := aggs[i+1]
		if a.Op != "sum" || a.Col != col || a.Type != "int64" || !a.Valid {
			return aggAnswer{}, fmt.Errorf("aggregate %+v, want a valid int64 sum(%s)", a, col)
		}
		ans.sums[i] = a.ValueI
	}
	return ans, nil
}

// serveAnswer reads an in-process executed result.
func serveAnswer(res serve.TableResult) (aggAnswer, error) {
	if res.Execution == nil {
		return aggAnswer{}, fmt.Errorf("result for %q carries no execution", res.Table)
	}
	aggs := make([]client.AggregateResult, len(res.Execution.Aggregates))
	for i, a := range res.Execution.Aggregates {
		aggs[i] = client.AggregateResult(a)
	}
	return answerOf(res.Execution.MatchedRows, aggs)
}

// clientAnswer reads an executed result received over HTTP.
func clientAnswer(res client.TableResult) (aggAnswer, error) {
	if res.Execution == nil {
		return aggAnswer{}, fmt.Errorf("result for %q carries no execution", res.Table)
	}
	return answerOf(res.Execution.MatchedRows, res.Execution.Aggregates)
}
