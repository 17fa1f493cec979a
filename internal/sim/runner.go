// Package sim drives a reorganization policy over a query stream and
// accounts its costs, in both the paper's logical cost model (fraction
// of rows scanned per query; α per reorganization) and simulated
// wall-clock seconds via the storage model. It also implements the
// background-reorganization delay Δ: a switch decision charges its cost
// immediately, but the next Δ queries are still served on the outgoing
// layout, exactly as in §VI-D5.
package sim

import (
	"oreo/internal/layout"
	"oreo/internal/policy"
	"oreo/internal/query"
	"oreo/internal/storage"
)

// Config parameterizes one policy run.
type Config struct {
	// Alpha is the logical reorganization cost charged per switch.
	Alpha float64
	// Delay is the number of queries served on the outgoing layout
	// after each switch decision (Δ).
	Delay int
	// Disk converts logical volumes to seconds. The zero value disables
	// physical-time accounting.
	Disk *storage.DiskModel
	// TableMB is the compressed on-disk size of the whole table, used
	// with Disk for physical-time accounting.
	TableMB float64
	// CurveStride records the cumulative-cost curve every this many
	// queries (0 disables curve recording; 1 records every query).
	CurveStride int
	// SpaceStride samples the dynamic state-space size every this many
	// queries for policies that report it (0 disables).
	SpaceStride int
}

// Result is the accounting of one policy run.
type Result struct {
	Policy  string
	Queries int

	// Logical costs (the paper's simulation metric).
	QueryCost float64 // sum of c(serving layout, q)
	ReorgCost float64 // Alpha * Switches
	Switches  int

	// Physical times in seconds (the paper's end-to-end metric),
	// populated when Config.Disk is set.
	QuerySeconds float64
	ReorgSeconds float64

	// Curve is the cumulative total logical cost sampled every
	// CurveStride queries (index i covers queries [0, (i+1)*stride)).
	Curve []float64
	// CurveStride echoes the sampling stride used for Curve.
	CurveStride int

	// AvgSpace / MaxSpace summarize the dynamic state-space size for
	// SpaceReporter policies (zero otherwise).
	AvgSpace float64
	MaxSpace int

	// FinalLayout is the layout served at stream end.
	FinalLayout string
}

// Total returns the combined logical cost.
func (r Result) Total() float64 { return r.QueryCost + r.ReorgCost }

// TotalSeconds returns the combined physical time.
func (r Result) TotalSeconds() float64 { return r.QuerySeconds + r.ReorgSeconds }

// Run drives the policy over the stream. The policy's logical state
// advances on its own decisions; the harness tracks the *serving*
// layout, which trails decisions by cfg.Delay queries.
func Run(qs []query.Query, pol policy.Policy, cfg Config) Result {
	res := Result{Policy: pol.Name(), Queries: len(qs), CurveStride: cfg.CurveStride}

	swap := Swap{Serving: pol.Current(), Delay: cfg.Delay}

	var spaceSamples, spaceSum int
	cum := 0.0
	for i, q := range qs {
		if swap.Step(pol.Observe(q)) {
			// Reorganization cost is incurred as soon as the decision is
			// made (§VI-D5); the swap lands after Delay more queries.
			res.ReorgCost += cfg.Alpha
			res.Switches++
			if cfg.Disk != nil {
				res.ReorgSeconds += cfg.Disk.ReorgSeconds(cfg.TableMB)
			}
		}

		c := swap.Serving.Cost(q)
		res.QueryCost += c
		cum += c
		if cfg.Disk != nil {
			res.QuerySeconds += cfg.Disk.ScanSeconds(c * cfg.TableMB)
		}
		if cfg.CurveStride > 0 && (i+1)%cfg.CurveStride == 0 {
			res.Curve = append(res.Curve, cum+res.ReorgCost)
		}
		if cfg.SpaceStride > 0 && (i+1)%cfg.SpaceStride == 0 {
			if sr, ok := pol.(policy.SpaceReporter); ok {
				n := sr.StateSpaceSize()
				spaceSamples++
				spaceSum += n
				if n > res.MaxSpace {
					res.MaxSpace = n
				}
			}
		}
	}
	if spaceSamples > 0 {
		res.AvgSpace = float64(spaceSum) / float64(spaceSamples)
	}
	res.FinalLayout = swap.Serving.Name
	return res
}

// Swap is the physical side of reorganization under the background
// delay Δ: the layout queries are served on, which trails the policy's
// logical state by Delay queries after each switch decision. Run and
// the public oreo.Optimizer both advance one, so the figures reproduced
// here and the decisions served online share one swap rule.
type Swap struct {
	// Serving is the layout queries are physically served on.
	Serving *layout.Layout
	// Pending is the in-flight reorganization target, or nil.
	Pending *layout.Layout
	// Delay is Δ, the number of queries still served on the outgoing
	// layout after a switch decision.
	Delay     int
	countdown int
}

// Step registers the policy's target for the next query (nil when the
// policy did not switch) and advances the countdown. It reports whether
// a real switch was decided. The policy may surface a target equal to
// the serving layout — switching back to it while a delayed swap is
// still in flight — which is not a reorganization: it aborts the
// pending swap instead, so serving never lands on a layout the policy
// already abandoned. The aborted build's earlier α charge stands:
// reorganization cost is incurred at decision time (§VI-D5), so
// oscillating inside the delay window is never free.
func (s *Swap) Step(target *layout.Layout) bool {
	switched := false
	if target != nil {
		if target.Name != s.Serving.Name {
			switched = true
			s.Pending = target
			s.countdown = s.Delay
		} else {
			s.Pending = nil
		}
	}
	if s.Pending != nil {
		if s.countdown <= 0 {
			s.Serving, s.Pending = s.Pending, nil
		} else {
			s.countdown--
		}
	}
	return switched
}
