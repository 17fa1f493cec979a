package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative
// to the tracer's start, and the span that caused it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. It
// is safe for concurrent use (the decision consumer records candidate
// generation spans while the sender records its own).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNS: now, EndNS: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return time.Duration(now - t.spans[id].StartNS)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// layerTime is one span name's aggregate: how many spans, their total
// duration, and their self time — each span's duration minus the part
// of its interval that its children cover.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates the recorded spans by name, in order of each
// name's first appearance.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	index := make(map[string]int)
	var out []layerTime
	for _, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, layerTime{Name: s.Name})
		}
		dur := s.EndNS - s.StartNS
		out[i].Count++
		out[i].Total += time.Duration(dur)
		out[i].Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of its children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if k.EndNS >= 0 && hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	reach = parent.StartNS
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// write saves every span as one JSON line to dir/name and prints the
// per-layer self-time summary to w.
func (t *tracer) write(dir, name string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing span: %w", err)
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing span file: %w", err)
	}
	fmt.Fprintf(w, "trace: %d spans written to %s\n", n, path)
	fmt.Fprintf(w, "trace: %-28s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "trace: %-28s %8d %12.3f %12.3f\n", lt.Name, lt.Count, ms(lt.Total), ms(lt.Self))
	}
	return nil
}
