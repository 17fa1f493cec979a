package oreo

import (
	"io"

	"oreo/internal/trace"
)

// TraceEvent is one recorded reorganization decision; see Optimizer
// tracing in Config.TraceCapacity.
type TraceEvent = trace.Event

// TraceKind classifies trace events.
type TraceKind = trace.Kind

// Trace event kinds.
const (
	// TraceAdmit: a candidate layout joined the dynamic state space.
	TraceAdmit = trace.EventAdmit
	// TraceReject: a candidate was ε-similar to an incumbent.
	TraceReject = trace.EventReject
	// TracePrune: a layout was evicted to respect MaxStates.
	TracePrune = trace.EventPrune
	// TraceSwitch: the optimizer reorganized into a different layout.
	TraceSwitch = trace.EventSwitch
	// TracePhase: an MTS phase ended (all counters saturated).
	TracePhase = trace.EventPhase
)

// Events returns the retained trace events, oldest first. Empty unless
// Config.TraceCapacity was set. Unlike the rest of Optimizer it is safe
// to call concurrently with ProcessQuery: the recorder takes its own
// lock, so a serving host can read the trace without stopping decisions.
func (o *Optimizer) Events() []TraceEvent { return o.rec.Events() }

// DumpTrace writes the retained trace to w, one event per line.
func (o *Optimizer) DumpTrace(w io.Writer) error { return o.rec.Dump(w) }
