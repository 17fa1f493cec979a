package oreo

// OptimizerSnapshot is one consistent view of an optimizer's serving
// state: the three fields were all true at the same instant (between
// two ProcessQuery calls). Layouts are immutable once built, so a host
// that publishes snapshots — internal/serve hands one to every request
// through an atomic pointer — lets readers cost queries and read
// skip-lists against Serving without any lock while its single decision
// goroutine keeps advancing the optimizer underneath them.
type OptimizerSnapshot struct {
	// Serving is the layout queries were served on as of the snapshot.
	Serving *Layout
	// Pending is the in-flight background reorganization target, or nil.
	Pending *Layout
	// Stats are the cumulative counters as of the snapshot.
	Stats Stats
}

// Snapshot returns the optimizer's current serving state as one
// immutable value. Like every Optimizer method it must be called from
// the goroutine that drives ProcessQuery; the returned value may then
// be shared freely.
func (o *Optimizer) Snapshot() OptimizerSnapshot {
	return OptimizerSnapshot{Serving: o.swap.Serving, Pending: o.swap.Pending, Stats: o.Stats()}
}

// CostQuery costs q on the snapshot's serving layout and pre-computes
// the survivor partition skip-list, without advancing any decision
// state: no counters move, no admission runs, and Reorganized is always
// false. The evaluation compiles against the layout's immutable
// statistics block and deliberately bypasses the layout's shared cost
// memo, so concurrent readers scale with cores instead of serializing
// on the memo lock. This is the serving read path (internal/serve calls
// it per request); callers that want the query to also inform
// reorganization decisions feed it to ProcessQuery (through a queue, as
// internal/serve does).
func (s OptimizerSnapshot) CostQuery(q Query) Decision {
	cost, ids := s.Serving.CostSurvivorsSnapshot(q)
	if ids == nil {
		ids = []int{}
	}
	return Decision{Cost: cost, Layout: s.Serving, query: q, survivors: ids}
}
