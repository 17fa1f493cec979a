package main

import (
	"math/rand"

	"oreo"
	"oreo/client"
	"oreo/internal/serve"
	"oreo/internal/workload"
)

// tableName is the one table every workload serves.
const tableName = "lineitem"

// timeColumn is the TPC-H arrival-time column the default layout sorts by.
const timeColumn = "o_orderdate"

// sumColumns are the integer columns executed queries sum. Integer sums
// are exact in any order, so the brute-force oracle can demand equality.
var sumColumns = []string{"l_quantity", "o_orderdate"}

// partitionsFor is the optimizer's default partition count for a table
// of n rows: about one partition per 1500 rows, within [8, 128].
func partitionsFor(n int) int {
	k := n / 1500
	if k < 8 {
		k = 8
	}
	if k > 128 {
		k = 128
	}
	return k
}

// scheduleSeed fixes the order in which driftStream visits the
// templates. It is part of the workload's definition, like the segment
// length: the workload seed draws the data and every query's constants,
// not the drift schedule, because the schedule decides how many
// switches OREO makes and so, through the store rebuilds and the state
// count, the decision path's speed.
const scheduleSeed = 1

// driftStream draws a drifting query stream: passes rounds over all 13
// TPC-H templates, each round in its own order (the same for every
// workload seed), each template held for perSegment queries before the
// workload switches. Every template appears equally often, so a seed
// changes the constants but not the amount of each kind of work.
func driftStream(passes, perSegment int, rng *rand.Rand) []oreo.Query {
	tpls := workload.TPCHTemplates()
	order := rand.New(rand.NewSource(scheduleSeed))
	qs := make([]oreo.Query, 0, passes*len(tpls)*perSegment)
	for p := 0; p < passes; p++ {
		for _, t := range order.Perm(len(tpls)) {
			for j := 0; j < perSegment; j++ {
				qs = append(qs, oreo.Query{ID: len(qs) + 1, Template: t, Preds: tpls[t].Make(rng)})
			}
		}
	}
	return qs
}

// queryPool draws perTemplate instances of every TPC-H template,
// interleaved: pool[i] comes from template i mod 13, so any window of
// consecutive pool entries mixes all templates evenly.
func queryPool(perTemplate int, rng *rand.Rand) []oreo.Query {
	tpls := workload.TPCHTemplates()
	qs := make([]oreo.Query, 0, perTemplate*len(tpls))
	for i := 0; i < perTemplate; i++ {
		for t := range tpls {
			qs = append(qs, oreo.Query{ID: len(qs) + 1, Template: t, Preds: tpls[t].Make(rng)})
		}
	}
	return qs
}

// sliceRows copies rows [from, to) of ds into a new dataset that shares
// ds's schema pointer (appends and concatenations require that).
func sliceRows(ds *oreo.Dataset, from, to int) *oreo.Dataset {
	b := oreo.NewDatasetBuilder(ds.Schema(), to-from)
	idx := make([]int, to-from)
	for i := range idx {
		idx[i] = from + i
	}
	b.AppendRows(ds, idx)
	return b.Build()
}

// wirePreds encodes a query's predicates in the /v1 wire shape.
func wirePreds(q oreo.Query) []serve.PredicateJSON {
	out := make([]serve.PredicateJSON, len(q.Preds))
	for i, p := range q.Preds {
		out[i] = serve.PredicateJSON{
			Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
			LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
		}
	}
	return out
}

// executeRequest is the in-process form of an executed read: count plus
// the integer sums.
func executeRequest(q oreo.Query) serve.QueryRequest {
	aggs := []serve.AggregateJSON{{Op: "count"}}
	for _, c := range sumColumns {
		aggs = append(aggs, serve.AggregateJSON{Op: "sum", Col: c})
	}
	return serve.QueryRequest{Table: tableName, ID: q.ID, Preds: wirePreds(q), Execute: true, Aggs: aggs}
}

// clientQuery is executeRequest in the client SDK's shape.
func clientQuery(q oreo.Query) client.Query {
	preds := make([]client.Predicate, len(q.Preds))
	for i, p := range q.Preds {
		preds[i] = client.Predicate{
			Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
			LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
		}
	}
	aggs := []client.Aggregate{client.Count()}
	for _, c := range sumColumns {
		aggs = append(aggs, client.Sum(c))
	}
	return client.Query{Table: tableName, ID: q.ID, Preds: preds, Execute: true, Aggs: aggs}
}

// clientRows encodes a dataset's rows as append rows.
func clientRows(ds *oreo.Dataset) []client.Row {
	schema := ds.Schema()
	rows := make([]client.Row, ds.NumRows())
	for r := range rows {
		row := make(client.Row, schema.NumCols())
		for c := 0; c < schema.NumCols(); c++ {
			col := schema.Col(c)
			switch col.Type {
			case oreo.Int64:
				row[col.Name] = ds.Int64At(c, r)
			case oreo.Float64:
				row[col.Name] = ds.Float64At(c, r)
			default:
				row[col.Name] = ds.StringAt(c, r)
			}
		}
		rows[r] = row
	}
	return rows
}
