package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"oreo"
	"oreo/internal/exec"
	"oreo/internal/layout"
	"oreo/internal/metrics"
	"oreo/internal/table"
)

// shard is one table's serving unit. Everything a request reads lives
// in one immutable table version (epoch, snapshot, base, delta, store),
// published through one atomic pointer: a read takes one load and
// serves from a state that was true at exactly that epoch, so the
// layout it costs against, the store it scans and the stats it reports
// can never come from different instants. Every write of the version
// goes through publish.
//
// A shard runs in one of two modes. In leader mode it owns a plain
// optimizer and the bounded event queue that decouples request handling
// from the sequential decision path. The read path (serveQuery /
// serveExecute) is lock-free: it costs the query and extracts the
// survivor skip-list against the published version — and, for execute
// requests, scans the version's execution store — then hands the query
// to the decision loop through a non-blocking send. The write path is
// one background consumer goroutine that owns the optimizer, drains the
// queue and publishes a new version after each event, so the decision
// path never sits on a request's critical path. The queue carries three
// event kinds:
//
//   - observations (evObserve) feed Optimizer.ProcessQuery. When the
//     queue is full the query is sampled out of reorganization
//     decisions (counted in dropped) rather than blocking the request —
//     under overload OREO sees a uniform sample of the stream, which
//     its sliding-window machinery is built for.
//   - appends (evAppend) land a decoded row batch in the table's delta
//     segment. Unlike observations they are never dropped: the sender
//     blocks until the consumer has made the rows visible, then gets an
//     acknowledgment carrying the new epoch.
//   - compactions (evCompact) fold the delta into the base: the current
//     layout's assignment is extended over the delta rows (least-
//     widening placement), the grown dataset is repartitioned under it,
//     and a fresh optimizer takes over with the compacted layout as its
//     initial state.
//
// Every event advances the table's single epoch counter, so layout
// decisions and data changes share one totally ordered stream — the
// property replication relies on for bit-identical followers.
//
// In replica mode there is no optimizer and no event loop: versions
// are applied from outside (a replication follower decoding the
// leader's stream — see internal/replica), the read path serves from
// them exactly as a leader shard would, and observations are handed to
// a forward function that ships them upstream instead of into a local
// queue. A replica shard that has not yet applied its first snapshot
// answers unavailable.
type shard struct {
	table string
	// ds is the boot-time dataset — the schema anchor (the schema
	// pointer never changes across appends and compactions). The
	// *current* base lives in the published version: compaction grows
	// it past ds.
	ds *oreo.Dataset

	// opt is the decision engine — leader mode only, nil on a replica.
	// The event consumer owns it: compaction replaces it with a fresh
	// engine over the grown base, and no request ever touches it
	// (requests read the published version, whose trace is the current
	// engine's).
	opt *oreo.Optimizer
	// seedRows is the row count of the table's boot source (the CSV or
	// fixture the process started from), which persistence needs to
	// frame tails relative to a stable prefix; see CoreConfig.SeedRows.
	seedRows int

	// replica marks a shard whose state is externally applied; forward
	// is its observation hand-off (upstream, not a local queue).
	replica bool
	forward func(oreo.Query) bool

	// cur is the published table version every read serves from. On a
	// replica it is nil until the first snapshot lands.
	cur atomic.Pointer[version]
	// pubMu serializes publish, the one writer of cur.
	pubMu sync.Mutex

	// onDecision, when set, is invoked from the event consumer after
	// each processed event — the replication publish hook. Swapped
	// atomically so it can be attached to a running core.
	onDecision atomic.Pointer[func(table string, upd DecisionUpdate)]

	// delta is the table's live write tail — consumer-owned; requests
	// only ever see immutable views of it through the version. Leader
	// mode only.
	delta *table.Delta
	// compactThreshold triggers an automatic fold when the delta
	// reaches this many rows; <= 0 disables auto-compaction.
	compactThreshold int
	// compactSeq names compacted layouts (compact-1, compact-2, …).
	compactSeq int
	// statsBase accumulates the cumulative counters of every optimizer
	// retired by compaction, so published stats stay monotone across
	// engine rebuilds. Consumer-owned.
	statsBase oreo.Stats

	queue     chan shardEvent
	closeOnce sync.Once
	wg        sync.WaitGroup
	// obsMu guards the handoff into queue against close: senders hold
	// the read side (cheap, shared), close holds the write side, so a
	// request racing a shutdown observes obsClosed instead of panicking
	// on a closed channel.
	obsMu     sync.RWMutex
	obsClosed bool

	// The serving counters are metrics-registry instruments — the one
	// source of truth that /stats, /healthz, and a /metrics scrape all
	// read, so the surfaces cannot drift from each other. Recording on a
	// resolved instrument is a single atomic add (see internal/metrics).
	served   *metrics.Counter // read-path answers
	observed *metrics.Counter // queries enqueued for the decision loop (or forwarded upstream)
	dropped  *metrics.Counter // queue-full samples (or failed forwards)
	costBits atomic.Uint64    // sum of served costs, as float64 bits (scraped via CounterFunc)
	// compiles counts snapshot compile-and-sweep evaluations served on
	// the read path — the memo-bypassing complement of the engine's
	// decision-path hit/miss counters.
	compiles *metrics.Counter
	// executions / execRows count row-level scans and the rows they
	// examined; parallelScans counts the executions that ran with more
	// than one scan worker (see scanPar).
	executions    *metrics.Counter
	execRows      *metrics.Counter
	parallelScans *metrics.Counter
	// rowsAppended counts rows landed through the live write path (on a
	// follower: applied from the leader's stream); compactions counts
	// delta folds.
	rowsAppended *metrics.Counter
	compactions  *metrics.Counter

	// scanPar is the worker count execute scans run with
	// (exec.Options.Parallelism), resolved by the core at construction.
	scanPar int
}

// version is one immutable published table state; see shard.cur.
type version struct {
	epoch uint64
	snap  oreo.OptimizerSnapshot
	// ds is the partitioned base the snapshot's layouts describe. It
	// grows at compaction epochs and is otherwise stable.
	ds *oreo.Dataset
	// delta is the immutable live-tail view as of the epoch; nil means
	// empty. Scans append it in full (it is unpartitioned, so it is an
	// always-survivor extra partition), and costs count its rows.
	delta *oreo.Dataset
	// store is the execution store — ds materialized into one block per
	// partition of snap.Serving — or nil until the first execute request
	// asks for one, so costing-only deployments never pay the second
	// copy of the data. publish keeps it built for snap.Serving.
	store *exec.Store
	// trace reads the decision trace of the engine behind this version;
	// nil on a replica, which runs no decisions.
	trace func() []oreo.TraceEvent
}

// deltaRows returns the published delta's row count.
func (v *version) deltaRows() int {
	if v.delta == nil {
		return 0
	}
	return v.delta.NumRows()
}

// Decision-update kinds; see DecisionUpdate.Kind.
const (
	// UpdateDecision is a processed observation (a layout decision).
	UpdateDecision = "decision"
	// UpdateAppend is a row batch landed in the delta segment.
	UpdateAppend = "append"
	// UpdateCompact is a delta fold into a new base layout.
	UpdateCompact = "compact"
)

// DecisionUpdate is what the event consumer reports to an attached
// hook after processing one event — the unit of the replication log.
// Epoch is the table's monotonic sequence number (one per processed
// event, starting at 1 for the first event after boot); Snapshot is
// the post-event published state; Switched reports that the serving
// layout changed with this event (the physical swap, so under
// ReorgDelay it fires when the swap lands, not when the switch was
// decided — exactly what a follower mirroring served answers needs).
//
// Kind distinguishes the three event families. Appends carry the
// landed batch in Rows and the delta size after it in DeltaRows;
// compactions carry the folded row count in Folded (their new base and
// layout travel in Snapshot, whose Serving layout is the compacted
// one, and Switched is always true).
type DecisionUpdate struct {
	Kind     string
	Epoch    uint64
	Cost     float64
	Switched bool
	Snapshot oreo.OptimizerSnapshot
	// Rows is the appended batch (Kind == UpdateAppend only).
	Rows *oreo.Dataset
	// DeltaRows is the delta segment's size after this event.
	DeltaRows int
	// Folded is the number of delta rows folded into the base
	// (Kind == UpdateCompact only).
	Folded int
}

// shardEvent is one unit of the consumer's totally ordered stream.
type shardEvent struct {
	kind evKind
	q    oreo.Query    // evObserve
	rows *oreo.Dataset // evAppend
	// resp acknowledges appends and compactions (buffered, capacity 1).
	resp chan eventAck
}

type evKind int

const (
	evObserve evKind = iota
	evAppend
	evCompact
)

// eventAck is the consumer's acknowledgment of an append or compact
// event, taken after the new state is published — a client that has
// its ack is guaranteed to see its rows on the very next read.
type eventAck struct {
	epoch     uint64
	deltaRows int
	folded    int
	err       error
}

func newShard(name string, ds *oreo.Dataset, opt *oreo.Optimizer, queueSize, scanPar, seedRows, compactThreshold int, reg *metrics.Registry) *shard {
	s := &shard{
		table:            name,
		ds:               ds,
		opt:              opt,
		seedRows:         seedRows,
		delta:            table.NewDelta(ds.Schema()),
		compactThreshold: compactThreshold,
		queue:            make(chan shardEvent, queueSize),
		scanPar:          scanPar,
	}
	s.publish(func(*version) *version {
		return &version{snap: opt.Snapshot(), ds: ds, trace: opt.Events}
	})
	s.registerMetrics(reg)
	s.wg.Add(1)
	go s.consume()
	return s
}

// newReplicaShard builds a shard in replica mode: no optimizer, no
// event loop; state arrives through applyReplica and observations
// leave through forward. It answers unavailable until the first
// snapshot is applied.
func newReplicaShard(name string, ds *oreo.Dataset, forward func(oreo.Query) bool, scanPar int, reg *metrics.Registry) *shard {
	s := &shard{table: name, ds: ds, replica: true, forward: forward, scanPar: scanPar}
	s.registerMetrics(reg)
	return s
}

// registerMetrics resolves the shard's counter instruments and attaches
// the callback series that read live shard state on each scrape. Every
// series carries a {table} label; the full catalog is documented in the
// "# Observability" section of the root package.
func (s *shard) registerMetrics(reg *metrics.Registry) {
	lbl := metrics.Labels{"table": s.table}
	s.served = reg.Counter("oreo_queries_served_total",
		"Queries answered on the read path, including execute requests.", lbl)
	s.observed = reg.Counter("oreo_observations_total",
		"Served queries enqueued for the decision loop (leader) or forwarded upstream (follower).", lbl)
	s.dropped = reg.Counter("oreo_observations_dropped_total",
		"Served queries sampled out of reorganization decisions because the observation queue (or forward buffer) was full.", lbl)
	s.compiles = reg.Counter("oreo_snapshot_compiles_total",
		"Lock-free compile-and-sweep evaluations served against layout snapshots.", lbl)
	s.executions = reg.Counter("oreo_executions_total",
		"Served queries that also ran a row-level scan over their survivor partitions.", lbl)
	s.execRows = reg.Counter("oreo_scan_rows_examined_total",
		"Rows examined by execution scans; rate() of this is scan rows per second.", lbl)
	s.parallelScans = reg.Counter("oreo_parallel_scans_total",
		"Execution scans that ran with more than one worker.", lbl)
	s.rowsAppended = reg.Counter("oreo_rows_appended_total",
		"Rows landed through the live write path (on a follower: applied from the leader's stream).", lbl)
	s.compactions = reg.Counter("oreo_compactions_total",
		"Delta-segment folds into a freshly partitioned base layout.", lbl)
	reg.CounterFunc("oreo_served_cost_total",
		"Cumulative served cost: the sum over answered queries of the scanned table fraction.", lbl,
		func() float64 { return math.Float64frombits(s.costBits.Load()) })
	reg.GaugeFunc("oreo_observation_queue_depth",
		"Observations waiting for the decision loop (always 0 on a follower).", lbl,
		func() float64 { return float64(s.queueDepth()) })
	reg.GaugeFunc("oreo_observation_queue_capacity",
		"Capacity of the decision-observation queue.", lbl,
		func() float64 { return float64(s.queueCap()) })

	// Decision-loop and replication series read the published version —
	// nil on a replica before its first snapshot, which scrapes as 0.
	snapFn := func(f func(*version) float64) func() float64 {
		return func() float64 {
			v := s.cur.Load()
			if v == nil {
				return 0
			}
			return f(v)
		}
	}
	reg.CounterFunc("oreo_decisions_total",
		"Queries processed by the decision loop; on a follower these are the leader's replicated counters.", lbl,
		snapFn(func(v *version) float64 { return float64(v.snap.Stats.Queries) }))
	reg.CounterFunc("oreo_reorganizations_total",
		"Layout reorganizations the optimizer has committed.", lbl,
		snapFn(func(v *version) float64 { return float64(v.snap.Stats.Reorganizations) }))
	reg.CounterFunc("oreo_decision_query_cost_total",
		"Cumulative query cost accounted by the decision loop (the paper's service cost).", lbl,
		snapFn(func(v *version) float64 { return v.snap.Stats.QueryCost }))
	reg.CounterFunc("oreo_decision_reorg_cost_total",
		"Cumulative data-movement cost of committed reorganizations.", lbl,
		snapFn(func(v *version) float64 { return v.snap.Stats.ReorgCost }))
	reg.GaugeFunc("oreo_replication_epoch",
		"Published decision epoch: decisions processed on a leader, last applied epoch on a follower. Leader minus follower is the replication lag.", lbl,
		snapFn(func(v *version) float64 { return float64(v.epoch) }))
	reg.GaugeFunc("oreo_delta_rows",
		"Rows currently in the table's live delta segment (unpartitioned; scanned in full by every query).", lbl,
		snapFn(func(v *version) float64 { return float64(v.deltaRows()) }))
	reg.CounterFunc("oreo_memo_hits_total",
		"Decision-path cost-memo hits for the serving layout.", lbl,
		snapFn(func(v *version) float64 { return float64(v.snap.Serving.Engine().Stats().Hits) }))
	reg.CounterFunc("oreo_memo_misses_total",
		"Decision-path cost-memo misses for the serving layout.", lbl,
		snapFn(func(v *version) float64 { return float64(v.snap.Serving.Engine().Stats().Misses) }))
	reg.GaugeFunc("oreo_memo_entries",
		"Entries in the serving layout's cost memo.", lbl,
		snapFn(func(v *version) float64 { return float64(v.snap.Serving.Engine().Stats().Entries) }))
}

// consume is the single event consumer — the serialization point for
// everything that advances the table's epoch: layout decisions, row
// appends, and compactions. It owns the optimizer and publishes the
// next version after each event; a layout change rebuilds a
// materialized execution store inside that publish, on this goroutine —
// store rebuilds are the physical reorganization cost the optimizer's α
// models, and they must never land on a request. The attached decision
// hook (if any) runs after the publish but before an append/compact
// acknowledgment, so a replication publisher always describes a state
// the leader itself already serves, and an acked writer knows its rows
// are in-stream.
func (s *shard) consume() {
	defer s.wg.Done()
	for ev := range s.queue {
		switch ev.kind {
		case evObserve:
			prev := s.opt.CurrentLayout()
			d := s.opt.ProcessQuery(ev.q)
			snap := s.snapshot()
			v := s.publish(func(cur *version) *version {
				return &version{epoch: cur.epoch + 1, snap: snap, ds: cur.ds, delta: cur.delta, trace: cur.trace}
			})
			s.notify(DecisionUpdate{
				Kind: UpdateDecision, Epoch: v.epoch, Cost: d.Cost,
				Switched: snap.Serving != prev, Snapshot: snap, DeltaRows: v.deltaRows(),
			})
		case evAppend:
			//oreovet:ignore blockingsend reply on the caller-owned cap-1 ack channel; the single send cannot block
			ev.resp <- s.handleAppend(ev.rows)
		case evCompact:
			//oreovet:ignore blockingsend reply on the caller-owned cap-1 ack channel; the single send cannot block
			ev.resp <- s.handleCompact()
		}
	}
}

// handleAppend lands one row batch in the delta segment, publishes the
// new state, and — when the delta has reached the auto-compaction
// threshold — folds it immediately, all under the same consumer turn.
func (s *shard) handleAppend(rows *oreo.Dataset) eventAck {
	s.delta.AppendDataset(rows)
	s.rowsAppended.Add(uint64(rows.NumRows()))
	view := s.delta.View()
	v := s.publish(func(cur *version) *version {
		next := *cur
		next.epoch++
		next.delta = view.Data
		return &next
	})
	s.notify(DecisionUpdate{
		Kind: UpdateAppend, Epoch: v.epoch, Snapshot: v.snap,
		Rows: rows, DeltaRows: view.Rows(),
	})
	ack := eventAck{epoch: v.epoch, deltaRows: view.Rows()}
	if s.compactThreshold > 0 && view.Rows() >= s.compactThreshold {
		cack := s.handleCompact()
		ack.epoch, ack.deltaRows, ack.err = cack.epoch, cack.deltaRows, cack.err
	}
	return ack
}

// handleCompact folds the delta into the base: the serving layout's
// assignment is extended over the delta rows by least-widening
// placement, the grown dataset is repartitioned under the extended
// assignment (metadata recomputed exactly), and a fresh optimizer over
// the grown base takes over with the compacted layout as its initial
// state — the optimizer's own machinery (window, candidate generation,
// D-UMTS counters) then reorganizes the compacted table as usual.
// Cumulative stats survive the engine swap via statsBase. An empty
// delta is a no-op that does not advance the epoch.
func (s *shard) handleCompact() eventAck {
	n := s.delta.Rows()
	cur := s.cur.Load()
	if n == 0 {
		return eventAck{epoch: cur.epoch}
	}
	view := s.delta.View()
	newDS := table.Concat(cur.ds, view.Data)
	serving := cur.snap.Serving
	assign := extendAssignment(serving.Part, view.Data)
	part, err := table.BuildPartitioning(newDS, assign, serving.Part.NumPartitions)
	if err != nil {
		return eventAck{epoch: cur.epoch, deltaRows: n, err: fmt.Errorf("repartitioning grown base: %w", err)}
	}
	s.compactSeq++
	newLayout := layout.New(fmt.Sprintf("compact-%d", s.compactSeq), newDS.Schema(), part)

	cfg := s.opt.Config()
	cfg.Initial = newLayout
	cfg.InitialSort = nil
	opt, err := oreo.New(newDS, cfg)
	if err != nil {
		return eventAck{epoch: cur.epoch, deltaRows: n, err: fmt.Errorf("rebuilding optimizer over grown base: %w", err)}
	}
	s.statsBase = addStats(s.statsBase, s.opt.Stats())
	s.opt = opt
	s.delta.Reset(n)
	s.compactions.Add(1)

	snap := s.snapshot()
	v := s.publish(func(cur *version) *version {
		return &version{epoch: cur.epoch + 1, snap: snap, ds: newDS, trace: opt.Events}
	})
	s.notify(DecisionUpdate{
		Kind: UpdateCompact, Epoch: v.epoch, Switched: true,
		Snapshot: snap, Folded: n,
	})
	return eventAck{epoch: v.epoch, folded: n}
}

// extendAssignment returns the serving assignment extended over the
// delta rows: each delta row goes to the partition whose metadata it
// widens least — the number of columns whose range (numeric) or value
// set (string) would have to grow to cover the row — tie-broken by
// fewer rows, then lowest partition ID. Placement is judged against
// the pre-compaction metadata only (not updated row by row), which
// keeps it deterministic and cheap; BuildPartitioning recomputes all
// metadata exactly afterwards. Every comparison is exact, so any
// process replaying the same stream places rows identically.
func extendAssignment(part *table.Partitioning, delta *table.Dataset) []int {
	assign := make([]int, 0, len(part.Assign)+delta.NumRows())
	assign = append(assign, part.Assign...)
	for r := 0; r < delta.NumRows(); r++ {
		best, bestWiden, bestRows := 0, delta.Schema().NumCols()+1, int(^uint(0)>>1)
		for pid := 0; pid < part.NumPartitions; pid++ {
			m := part.Meta[pid]
			w := widening(m, delta, r)
			if w < bestWiden || (w == bestWiden && m.NumRows < bestRows) {
				best, bestWiden, bestRows = pid, w, m.NumRows
			}
		}
		assign = append(assign, best)
	}
	return assign
}

// widening counts the columns of delta row r that partition metadata m
// cannot already cover. Empty column stats count zero — a row landing
// in an empty partition gets perfectly tight metadata, so empty
// partitions are preferred absorbers. NaN floats never widen a range,
// matching ColumnStats.AddFloat, whose min/max comparisons a NaN also
// falls through.
func widening(m *table.PartitionMeta, delta *table.Dataset, r int) int {
	w := 0
	schema := delta.Schema()
	for c := 0; c < schema.NumCols(); c++ {
		cs := &m.Stats[c]
		if cs.Empty() {
			continue
		}
		switch schema.Col(c).Type {
		case table.Int64:
			if v := delta.Int64At(c, r); v < cs.MinI || v > cs.MaxI {
				w++
			}
		case table.Float64:
			if v := delta.Float64At(c, r); v < cs.MinF || v > cs.MaxF {
				w++
			}
		case table.String:
			if !cs.ContainsString(delta.StringAt(c, r)) {
				w++
			}
		}
	}
	return w
}

// snapshot returns the engine's snapshot with the cumulative counters
// of every retired engine folded in, so published stats stay monotone
// across the optimizer rebuilds compaction performs. Consumer-owned.
func (s *shard) snapshot() oreo.OptimizerSnapshot {
	snap := s.opt.Snapshot()
	snap.Stats = addStats(s.statsBase, snap.Stats)
	return snap
}

// addStats folds the cumulative counters of base into cur: monotone
// counters add, high-water marks take the max, and instantaneous
// values (States) keep cur's reading.
func addStats(base, cur oreo.Stats) oreo.Stats {
	cur.Queries += base.Queries
	cur.Reorganizations += base.Reorganizations
	cur.QueryCost += base.QueryCost
	cur.ReorgCost += base.ReorgCost
	cur.Phases += base.Phases
	if base.MaxStates > cur.MaxStates {
		cur.MaxStates = base.MaxStates
	}
	if base.CompetitiveBound > cur.CompetitiveBound {
		cur.CompetitiveBound = base.CompetitiveBound
	}
	return cur
}

// notify invokes the attached decision hook, if any.
func (s *shard) notify(upd DecisionUpdate) {
	if fn := s.onDecision.Load(); fn != nil {
		(*fn)(s.table, upd)
	}
}

// view returns the published version, or an unavailable error on a
// replica shard that has not applied its first snapshot.
func (s *shard) view() (*version, *Error) {
	v := s.cur.Load()
	if v == nil {
		return nil, errUnavailable("table %q is replicating and has no snapshot yet", s.table)
	}
	return v, nil
}

// publish installs the next table version, derived by next from the
// current one (nil on a replica before its first snapshot) under pubMu.
// It is the one write path of the published state: the consumer's
// events, applyReplica, promotion and the lazy first-execute
// materialization all come through here. Once a store exists, publish
// carries it into every later version, rebuilding it from the version's
// base when the serving layout changed. Appends change only the delta,
// which scans take from the version, so they reuse the store as is.
// The rebuild runs before the version becomes visible, so a published
// serving layout always comes with a store built for it: during a
// rebuild requests keep reading the outgoing version whole.
func (s *shard) publish(next func(cur *version) *version) *version {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	cur := s.cur.Load()
	v := next(cur)
	if v.store == nil && cur != nil {
		v.store = cur.store
	}
	if v.store != nil && v.store.Partitioning() != v.snap.Serving.Part {
		v.store = exec.MustNewStore(v.ds, v.snap.Serving.Part)
	}
	s.cur.Store(v)
	return v
}

// materialize returns the published version with an execution store,
// building one on first use: it republishes the same epoch with the
// store attached. Concurrent first-execute requests wait on pubMu
// rather than each copying the table.
func (s *shard) materialize() *version {
	return s.publish(func(cur *version) *version {
		if cur.store != nil {
			return cur
		}
		next := *cur
		next.store = exec.MustNewStore(cur.ds, cur.snap.Serving.Part)
		return &next
	})
}

// applyReplica publishes an externally decoded state — the
// replica-mode write path. A materialized store follows the new layout
// on this (apply) goroutine, so the rebuild cost never lands on a
// request.
func (s *shard) applyReplica(st ReplicaState) {
	delta := st.Delta
	if delta != nil && delta.NumRows() == 0 {
		delta = nil
	}
	s.publish(func(*version) *version {
		return &version{epoch: st.Epoch, snap: st.Snapshot, ds: st.Dataset, delta: delta}
	})
	if st.Appended > 0 {
		s.rowsAppended.Add(uint64(st.Appended))
	}
	if st.Compacted {
		s.compactions.Add(1)
	}
}

// close stops the shard: no further observations or writes are
// accepted, the consumer (leader mode) drains what was already queued
// — including blocked appenders, which receive their acknowledgments —
// and the call returns once the event loop has gone quiet. Idempotent
// — a follower teardown may close the same core twice — and safe to
// call while requests are still in flight: late observations are
// dropped, not panicked on.
func (s *shard) close() {
	s.closeOnce.Do(func() {
		s.obsMu.Lock()
		s.obsClosed = true
		s.obsMu.Unlock()
		if s.queue != nil {
			close(s.queue)
		}
	})
	s.wg.Wait()
}

// The role-dependent fields (replica, forward, queue, and the
// leader-only decision machinery) are written exactly twice in a
// shard's life: at construction, and under the obsMu write lock by
// promoteLocked. Every reader that can race a promotion goes through these
// accessors, which take the read side — the same lock discipline the
// observation handoff already uses against close.

// isReplica reports whether the shard's state is externally applied.
func (s *shard) isReplica() bool {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return s.replica
}

// queueDepth returns the decision queue's current depth (0 on a
// replica, which has no queue).
func (s *shard) queueDepth() int {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return len(s.queue)
}

// queueCap returns the decision queue's capacity (0 on a replica).
func (s *shard) queueCap() int {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return cap(s.queue)
}

// bootRows returns the row count of the table's boot source; see
// CoreConfig.SeedRows.
func (s *shard) bootRows() int {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	return s.seedRows
}

// promotion is one table's prepared leader state; see preparePromotion.
type promotion struct {
	opt   *oreo.Optimizer
	delta *table.Delta
	// snap is the applied snapshot the engine continues from.
	snap oreo.OptimizerSnapshot
}

// preparePromotion builds what a replica shard needs to become a leader,
// continuing from the applied replication state exactly the way a
// compaction continues from a retired engine: a fresh optimizer over
// the replicated base with the replicated serving layout as its initial
// state (so the first post-promotion decision costs queries against the
// very layout the old leader was serving), and the replicated delta
// reseeded into a consumer-owned write tail. Construction walks the
// whole base and can fail (a bad Config), so it runs before any table
// flips and without the write lock. The inputs are stable — the caller
// has detached the replication stream, so nothing republishes the
// version underneath us.
func (s *shard) preparePromotion(cfg oreo.Config) (*promotion, error) {
	v, verr := s.view()
	if verr != nil {
		return nil, verr
	}
	cfg.Initial = v.snap.Serving
	cfg.InitialSort = nil
	opt, err := oreo.New(v.ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: rebuilding optimizer for promotion of table %q: %w", s.table, err)
	}
	delta := table.NewDelta(s.ds.Schema())
	if v.delta != nil {
		delta.AppendDataset(v.delta)
	}
	return &promotion{opt: opt, delta: delta, snap: v.snap}, nil
}

// promoteLocked flips a replica shard to leader mode in place with a
// prepared promotion. The caller holds obsMu's write side and has
// checked that the shard is an open replica, so it cannot fail. The
// replicated cumulative counters become the stats base, and the
// compaction sequence resumes from the serving layout's name so
// post-promotion folds never reuse a layout name the stream has already
// carried. The event queue and consumer goroutine start last; the epoch
// counter continues from the applied position because every publish
// derives the next epoch from the current version.
func (s *shard) promoteLocked(p *promotion, seedRows, queueSize, compactThreshold int) {
	s.opt = p.opt
	s.seedRows = seedRows
	s.statsBase = p.snap.Stats
	s.delta = p.delta
	s.compactThreshold = compactThreshold
	s.compactSeq = compactSeqFromName(p.snap.Serving.Name)
	s.publish(func(cur *version) *version {
		next := *cur
		next.trace = p.opt.Events
		return &next
	})
	s.queue = make(chan shardEvent, queueSize)
	s.replica = false
	s.forward = nil
	s.wg.Add(1)
	go s.consume()
}

// compactSeqFromName recovers the compaction sequence from a layout
// name: "compact-N" yields N, anything else 0. A promoted leader
// resumes the old leader's sequence so stream-visible layout names
// stay unique across the role change.
func compactSeqFromName(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "compact-%d", &n); err == nil && n > 0 {
		return n
	}
	return 0
}

// observe hands the query to the decision loop — or, on a replica,
// to the upstream forwarder — without blocking: false when the queue
// (or forward buffer) is full or the shard is closing.
func (s *shard) observe(q oreo.Query) bool {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	if s.obsClosed {
		return false
	}
	if s.replica {
		return s.forward != nil && s.forward(q)
	}
	select {
	case s.queue <- shardEvent{kind: evObserve, q: q}:
		return true
	default:
		return false
	}
}

// send enqueues an append or compact event and waits for the
// consumer's acknowledgment. Unlike observations these are never
// sampled out: the send blocks when the queue is full (writers get
// backpressure, reads never do). The obsMu read lock is held only
// across the enqueue — close() cannot close the channel mid-send
// because it needs the write lock, and the consumer keeps draining
// during shutdown, so a blocked send always completes and an enqueued
// event is always acknowledged.
func (s *shard) send(ev shardEvent) (eventAck, *Error) {
	s.obsMu.RLock()
	if s.obsClosed {
		s.obsMu.RUnlock()
		return eventAck{}, errUnavailable("table %q is shutting down", s.table)
	}
	ev.resp = make(chan eventAck, 1)
	//oreovet:ignore blockingsend append/compact writes take deliberate backpressure (see doc above); reads never reach this send and shutdown keeps draining
	s.queue <- ev
	s.obsMu.RUnlock()
	return <-ev.resp, nil
}

// record runs the shared read-path bookkeeping — observation handoff
// and serving counters — and returns whether the query was observed.
func (s *shard) record(q oreo.Query, cost float64) bool {
	observed := s.observe(q)
	if observed {
		s.observed.Add(1)
	} else {
		s.dropped.Add(1)
	}
	s.served.Add(1)
	s.compiles.Add(1)
	s.addCost(cost)
	return observed
}

// combinedCost folds the delta segment into a base-layout cost: the
// delta is unpartitioned, so every query scans it in full — it behaves
// as one extra partition that always survives pruning. The combined
// cost is (survivor row mass + delta rows) / (base rows + delta rows),
// computed from integer masses so leaders and followers at the same
// epoch derive bit-identical floats. With an empty delta the base cost
// is returned untouched, bitwise.
func combinedCost(base float64, survivors []int, part *oreo.Partitioning, deltaRows int) float64 {
	if deltaRows == 0 {
		return base
	}
	mass := 0
	for _, pid := range survivors {
		mass += part.RowsInPartition(pid)
	}
	total := part.TotalRows + deltaRows
	if total == 0 {
		return 0
	}
	return float64(mass+deltaRows) / float64(total)
}

// costOn costs q against one published version: the lock-free
// snapshot read path (OptimizerSnapshot.CostQuery) for cost and
// skip-list, with a live delta riding on the cost as an
// always-surviving extra partition.
func (s *shard) costOn(v *version, q oreo.Query) TableResult {
	dec := v.snap.CostQuery(q)
	ids := dec.SurvivorPartitions()
	res := TableResult{
		Table:              s.table,
		Cost:               combinedCost(dec.Cost, ids, v.snap.Serving.Part, v.deltaRows()),
		Layout:             dec.Layout.Name,
		NumPartitions:      dec.Layout.Part.NumPartitions,
		SurvivorPartitions: ids,
		DeltaRows:          v.deltaRows(),
		QueryID:            q.ID,
	}
	if v.snap.Pending != nil {
		res.Reorganizing = true
		res.PendingLayout = v.snap.Pending.Name
	}
	return res
}

// serveQuery answers one routed query: costing against the published
// version, then a non-blocking observation handoff.
func (s *shard) serveQuery(q oreo.Query) (TableResult, error) {
	v, verr := s.view()
	if verr != nil {
		return TableResult{}, verr
	}
	res := s.costOn(v, q)
	res.Observed = s.record(q, res.Cost)
	return res, nil
}

// serveExecute answers one routed query *and* executes it: cost and
// skip-list come from the published version, whose store is built for
// that very serving layout, so pruning and data always agree. The store
// scans exactly the survivor partitions — plus the version's delta, in
// full — re-checking predicates per row and folding the requested
// aggregates. Errors are client errors (invalid aggregates) or a
// canceled context, and leave every counter untouched.
func (s *shard) serveExecute(ctx context.Context, q oreo.Query, aggs []exec.AggSpec) (TableResult, error) {
	v, verr := s.view()
	if verr != nil {
		return TableResult{}, verr
	}
	// Validate before materializing: on a cold shard the lazy store
	// build is a full second copy of the table, and a request that is
	// going to be rejected must not leave that (permanent) footprint.
	if err := exec.ValidateAggs(s.ds.Schema(), aggs); err != nil {
		return TableResult{}, err
	}
	if v.store == nil {
		v = s.materialize()
	}
	res := s.costOn(v, q)
	scan, err := v.store.Scan(q, res.SurvivorPartitions, aggs, exec.Options{Context: ctx, Parallelism: s.scanPar, Delta: v.delta})
	if err != nil {
		return TableResult{}, err
	}
	res.Observed = s.record(q, res.Cost)
	s.executions.Add(1)
	s.execRows.Add(uint64(scan.RowsExamined))
	if scan.Workers > 1 {
		s.parallelScans.Add(1)
	}
	res.Execution = &ExecutionJSON{
		MatchedRows:     scan.Matched,
		PartitionsRead:  scan.PartitionsRead,
		PartitionsTotal: res.NumPartitions,
		RowsExamined:    scan.RowsExamined,
		RowsTotal:       v.store.TotalRows() + scan.DeltaRows,
		DeltaRows:       scan.DeltaRows,
		Aggregates:      encodeAggs(scan.Aggs),
	}
	return res, nil
}

// addCost accumulates a served cost into the float-bits counter.
func (s *shard) addCost(c float64) {
	for {
		old := s.costBits.Load()
		if s.costBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+c)) {
			return
		}
	}
}

// stats assembles the shard's stats response from one snapshot. On a
// replica shard the optimizer counters are the leader's, replicated
// with the decision stream; the serving metrics are the replica's own.
func (s *shard) stats() (StatsResponse, error) {
	v, verr := s.view()
	if verr != nil {
		return StatsResponse{}, verr
	}
	snap := v.snap
	st := snap.Stats
	memo := snap.Serving.Engine().Stats()
	return StatsResponse{
		Table: s.table,

		Queries:          st.Queries,
		Reorganizations:  st.Reorganizations,
		QueryCost:        st.QueryCost,
		ReorgCost:        st.ReorgCost,
		States:           st.States,
		MaxStates:        st.MaxStates,
		Phases:           st.Phases,
		CompetitiveBound: st.CompetitiveBound,

		MemoHits:    memo.Hits,
		MemoMisses:  memo.Misses,
		MemoEntries: memo.Entries,

		Served:            s.served.Load(),
		Observed:          s.observed.Load(),
		Dropped:           s.dropped.Load(),
		ServedCostSum:     math.Float64frombits(s.costBits.Load()),
		SnapshotCompiles:  s.compiles.Load(),
		Executions:        s.executions.Load(),
		ExecutionRowsRead: s.execRows.Load(),
		QueueDepth:        s.queueDepth(),
		QueueCapacity:     s.queueCap(),

		DeltaRows:    v.deltaRows(),
		RowsAppended: s.rowsAppended.Load(),
		Compactions:  s.compactions.Load(),
	}, nil
}

// layoutInfo assembles the layout response from one snapshot.
func (s *shard) layoutInfo() (LayoutResponse, error) {
	v, verr := s.view()
	if verr != nil {
		return LayoutResponse{}, verr
	}
	snap := v.snap
	lay := snap.Serving
	rows := make([]int, lay.Part.NumPartitions)
	for pid, m := range lay.Part.Meta {
		if m != nil {
			rows[pid] = m.NumRows
		}
	}
	res := LayoutResponse{
		Table:         s.table,
		Layout:        lay.Name,
		NumPartitions: lay.Part.NumPartitions,
		TotalRows:     lay.Part.TotalRows,
		PartitionRows: rows,
		DeltaRows:     v.deltaRows(),
	}
	if snap.Pending != nil {
		res.Reorganizing = true
		res.PendingLayout = snap.Pending.Name
	}
	return res, nil
}

// traceEvents returns the decision trace (empty unless the optimizer
// was configured with TraceCapacity). Replica shards run no decisions,
// so their trace is empty by construction — traces are a decision-path
// artifact and live where decisions are made, on the leader. The trace
// comes from the published version, so it follows engine swaps: after a
// compaction it is the fresh engine's (compaction retires the old
// optimizer, trace and all), after a promotion the promoted engine's.
func (s *shard) traceEvents() []TraceEventJSON {
	v := s.cur.Load()
	if v == nil || v.trace == nil {
		return []TraceEventJSON{}
	}
	events := v.trace()
	out := make([]TraceEventJSON, 0, len(events))
	for _, e := range events {
		out = append(out, TraceEventJSON{
			Seq: e.Seq, Kind: e.Kind.String(), Layout: e.Layout, Detail: e.Detail,
		})
	}
	return out
}
