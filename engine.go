package oreo

// Engine is the uniform in-process serving surface: everything a
// caller needs to drive OREO's online loop — feed queries through the
// decision path, read the layout in effect, watch an in-flight
// background reorganization, and observe the cumulative counters —
// independent of which concurrency regime sits behind it.
//
// Two implementations ship with the package:
//
//   - *Optimizer: the engine itself, driven from one goroutine.
//   - MultiOptimizer per-table shards, via MultiOptimizer.Engine: each
//     table's independent engine in a multi-table deployment.
//
// Harnesses written against Engine run unchanged over either. Engine
// is the decision surface only: lock-free costing without decision
// side effects lives on OptimizerSnapshot.CostQuery, over a snapshot
// the driving goroutine takes with Optimizer.Snapshot and publishes to
// readers (internal/serve publishes one per table event).
type Engine interface {
	// ProcessQuery feeds one query through the full decision path —
	// admission, D-UMTS counters, possible reorganization — and costs
	// it on the layout in effect.
	ProcessQuery(Query) Decision
	// CurrentLayout returns the layout queries are currently served on.
	CurrentLayout() *Layout
	// PendingLayout returns the target of an in-flight background
	// reorganization, or nil when none is in flight.
	PendingLayout() *Layout
	// Stats returns cumulative counters and the worst-case bound.
	Stats() Stats
}

// Compile-time proof that Optimizer presents the serving surface;
// MultiOptimizer.Engine covers the sharded case.
var _ Engine = (*Optimizer)(nil)
