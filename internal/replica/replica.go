// Package replica turns the single-process serving layer into a
// leader + N read-replica cluster sharing one decision stream.
//
// The topology follows the optimizer/front-end split: exactly one
// process — the leader — runs OREO's decision loops (admission, D-UMTS
// counters, reorganization), and any number of followers serve the
// full read surface from replicas of the leader's serving state.
// Followers run no optimizer at all: they apply an epoch-numbered
// decision log to an atomically published snapshot per table, so a
// follower's answer for any query — cost, survivor skip-list, executed
// aggregates — is bit-identical to the leader's at the same epoch, by
// construction rather than by approximation.
//
// # The decision stream
//
// The leader attaches a Publisher to its serve.Core. Each table's
// decision consumer reports every processed query as a DecisionUpdate,
// which the publisher encodes once and fans out to all subscribers as
// one NDJSON record on POST /v2/replication/subscribe:
//
//   - A subscription begins with one snapshot record per table: the
//     serving layout in the persist state framing (row→partition RLE +
//     statistics block + cost memo seed), the leader's optimizer
//     counters, and the table's current epoch. Followers rebuild the
//     layout against their local copy of the data; the statistics
//     block is the integrity gate — a bitwise mismatch proves the
//     follower's data differs from the leader's and fails replication
//     loudly instead of serving divergent answers.
//   - Every subsequent decision record carries the table's next epoch,
//     the served cost, the post-decision optimizer counters, and — only
//     when the serving layout physically changed — the new layout's
//     RLE. Followers apply records in epoch order; non-switch records
//     are a pointer update, switch records rebuild the layout (and the
//     execution store, in the same published version) off the request
//     path.
//   - Live writes travel in the same stream, on the same epoch counter:
//     append records carry the landed rows (columnar, floats as bit
//     patterns), and compact records carry the post-fold layout with no
//     rows at all — the follower already holds every row and rebuilds
//     the grown base locally, with the statistics block proving the
//     result bit-identical to the leader's. Data and layout share one
//     totally ordered log, so a follower is bit-identical to the
//     leader at every epoch, not just at layout boundaries.
//
// Epochs are per-table monotonic decision sequence numbers, surfaced
// as layout_epochs on /healthz of both leader and follower, so
// replication lag is readable with two curls.
//
// # Gaps, re-snapshots, and reconnects
//
// A slow subscriber never backpressures the leader: each subscriber
// has a bounded record queue, and on overflow the publisher drops the
// backlog and transparently re-snapshots every subscribed table in the
// same stream. On the follower side, any out-of-order epoch (a gap the
// publisher could not repair, a proxy hiccup) abandons the connection;
// the follower resubscribes with its current generation + boot ID +
// positions, and the leader answers with a cheap resume record when
// nothing was missed or a fresh snapshot otherwise — which is also how
// a leader restart is survived: the restarted process mints a new boot
// ID, so even if it re-reaches the claimed epochs under the same
// fencing term, subscribers are re-snapshotted instead of silently
// resumed onto a forked history.
//
// # Observations flow upstream
//
// Queries answered at a follower still teach the leader's optimizer:
// each answered query is forwarded upstream over
// POST /v2/replication/observe in bounded, batched, drop-and-count
// fashion — a follower under load sheds observations, never requests,
// and never applies backpressure to the leader.
package replica

import (
	"oreo"
	"oreo/internal/persist"
	"oreo/internal/serve"
)

// ProtocolVersion identifies the replication wire protocol. A leader
// rejects subscribe requests from a newer major version so skew fails
// loudly at connect time, not as a decode error mid-stream.
const ProtocolVersion = 1

// Record types; see the package comment for the protocol.
const (
	// RecordSnapshot carries a full table state: persist-format layout
	// + statistics block + memo seed, the leader's counters, and the
	// epoch the state was captured at. Sent at subscribe time and
	// whenever the publisher must repair a gap in-stream.
	RecordSnapshot = "snapshot"
	// RecordDecision carries one processed query: the next epoch, its
	// served cost, post-decision counters, and the new layout RLE when
	// the serving layout switched.
	RecordDecision = "decision"
	// RecordResume confirms a resubscription that missed nothing: the
	// follower's position matches the leader's, so no snapshot is sent.
	RecordResume = "resume"
	// RecordAppend carries one live-write batch: the next epoch, the
	// appended rows in the persist columnar framing (float cells as bit
	// patterns, so follower ≡ leader stays exact), and the delta size
	// after the append. Followers extend their local delta copy.
	RecordAppend = "append"
	// RecordCompact announces a delta fold: the next epoch, the folded
	// row count, and the compacted layout in the persist state framing —
	// WITHOUT rows. The follower already holds every row (base + delta
	// from prior records); it concatenates them locally and binds the
	// shipped layout against the result, with the statistics block as
	// the bit-exactness gate.
	RecordCompact = "compact"
)

// Record is one NDJSON line of the replication stream (leader →
// follower). Which fields are set depends on Type.
type Record struct {
	Type  string `json:"type"`
	Table string `json:"table"`
	// Epoch is the table's monotonic decision sequence number as of
	// this record.
	Epoch uint64 `json:"epoch"`
	// Generation is the monotonic fencing term of the leader this stream
	// comes from (snapshot and resume records). A fresh leader is term 1;
	// every promotion increments the term, so of two processes claiming
	// leadership the higher term is always the real one. A follower
	// tracks the highest term it has applied, echoes it when
	// resubscribing, and terminally rejects any stream regressing to a
	// lower term — a revived old leader is fenced out loudly, never
	// applied.
	Generation uint64 `json:"generation,omitempty"`
	// Boot identifies the publishing process instance (snapshot and
	// resume records): a random ID minted when the publisher is built,
	// unique per boot. Generation orders leaderships; Boot tells two
	// lives of the SAME term apart — a restarted leader resumes its
	// persisted term, and once its epochs re-reach a subscriber's old
	// position the (generation, epoch) pair alone would look resumable
	// even though the histories behind the two positions differ.
	// Subscribers echo the boot they applied from and the leader resumes
	// only on a three-way match; a boot mismatch costs one snapshot.
	Boot string `json:"boot,omitempty"`
	// State is the full table state (snapshot records only), in the
	// persist warm-start framing.
	State *persist.StateDoc `json:"state,omitempty"`
	// Cost is the served cost of the decision (decision records).
	Cost float64 `json:"cost,omitempty"`
	// Switched reports that the serving layout physically changed with
	// this decision; Layout then carries the new layout document.
	Switched bool               `json:"switched,omitempty"`
	Layout   *persist.LayoutDoc `json:"layout,omitempty"`
	// Stats are the leader's post-decision optimizer counters, carried
	// on snapshot and decision records so follower /stats and /healthz
	// mirror the leader's decision view.
	Stats *oreo.Stats `json:"stats,omitempty"`
	// Pending names the in-flight background reorganization target as
	// of this record ("" when none), so follower answers report the
	// same reorganizing state the leader's do.
	Pending string `json:"pending,omitempty"`
	// Rows is the appended batch (append records only), in the persist
	// columnar framing.
	Rows *persist.RowsDoc `json:"rows,omitempty"`
	// DeltaRows is the delta segment's size after this record (append
	// and compact records), a cheap coherence check for followers.
	DeltaRows int `json:"delta_rows,omitempty"`
	// Folded is the delta row count a compaction folded into the base
	// (compact records only). A follower whose local delta disagrees has
	// diverged and must fail rather than build a different base.
	Folded int `json:"folded,omitempty"`
}

// SubscribeRequest is the body of POST /v2/replication/subscribe.
type SubscribeRequest struct {
	Version int `json:"version"`
	// Tables restricts the subscription; empty subscribes to all
	// served tables. Unknown names are a client error.
	Tables []string `json:"tables,omitempty"`
	// Generation + Boot + Positions are the resubscribe-with-resume
	// hint: the leader term the follower last applied, the boot ID of
	// the publisher it applied from (see Record.Boot), and its per-table
	// epochs. Only when term AND boot match and a table's position
	// equals the leader's does the leader answer with a resume record
	// instead of re-sending a snapshot. A request claiming a term HIGHER
	// than the leader's own is rejected outright — it proves this leader
	// has been superseded and must not feed anyone state.
	Generation uint64            `json:"generation,omitempty"`
	Boot       string            `json:"boot,omitempty"`
	Positions  map[string]uint64 `json:"positions,omitempty"`
}

// Observation is one query a follower answered and forwards upstream
// so the leader's optimizer sees edge traffic. Predicates use the
// query-log wire encoding, exactly as serving requests do.
type Observation struct {
	Table string                `json:"table"`
	ID    int                   `json:"id,omitempty"`
	Preds []serve.PredicateJSON `json:"preds"`
}

// ObserveRequest is the body of POST /v2/replication/observe: one
// batch of forwarded observations. Generation is the sender's leader
// term; a leader rejects batches fenced to an older term (a follower
// still pointed at a deposed leader's worldview) so stale observations
// never teach the optimizer, and a batch claiming a newer term tells
// this leader it has been superseded. Zero means "unfenced" for
// compatibility with direct tooling.
type ObserveRequest struct {
	Generation   uint64        `json:"generation,omitempty"`
	Observations []Observation `json:"observations"`
}

// ObserveResponse reports the batch outcome: Observed entered a
// decision queue, Dropped were sampled out by a full queue, Rejected
// failed validation (schema skew — a follower forwarding columns this
// leader does not serve).
type ObserveResponse struct {
	Observed int `json:"observed"`
	Dropped  int `json:"dropped"`
	Rejected int `json:"rejected"`
}

// predToWire converts a predicate to the query-log wire encoding.
func predToWire(p oreo.Predicate) serve.PredicateJSON {
	return serve.PredicateJSON{
		Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
		LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
	}
}

// predFromWire converts a wire predicate back; shape validation is the
// receiving Core's (Observe checks columns against the schema).
func predFromWire(p serve.PredicateJSON) oreo.Predicate {
	return oreo.Predicate{
		Col: p.Col, HasLo: p.HasLo, HasHi: p.HasHi,
		LoI: p.LoI, HiI: p.HiI, LoF: p.LoF, HiF: p.HiF, In: p.In,
	}
}
