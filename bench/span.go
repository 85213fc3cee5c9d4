package main

// Spans recorded from the benchmark's own files, around its calls into
// each layer. They stay in memory and are written out at exit (-spans).
// Spans inside the program are a later change.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

const noParent = int32(-1)

// span is one timed call: times are nanoseconds since the tracer's
// epoch, Parent indexes the span that caused it (noParent for a root),
// Req is shared by the spans of one request. The name is an index into
// the tracer's name table, which keeps a span free of pointers: the
// collector then never scans the millions a traced run records.
type span struct {
	Name   nameID
	Start  int64
	End    int64
	Parent int32
	Req    int64
}

type nameID uint16

// tracer collects spans. A nil tracer is tracing switched off: tick
// reads no clock and add stores nothing, so the same code runs traced
// and untraced and the difference between the two is the overhead.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	names []string
	ids   map[string]nameID
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), ids: map[string]nameID{}} }

// id interns a span name (0 when off). Hot loops intern once up front.
func (t *tracer) id(name string) nameID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[name]
	if !ok {
		id = nameID(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// name is the span's name.
func (t *tracer) name(s span) string { return t.names[s.Name] }

func (t *tracer) on() bool { return t != nil }

// tick reads the clock (0 when off).
func (t *tracer) tick() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// reserve makes room for n more spans, so a hot loop that records
// millions does not pay for the slice growing under it.
func (t *tracer) reserve(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if need := len(t.spans) + n; need > cap(t.spans) {
		grown := make([]span, len(t.spans), need)
		copy(grown, t.spans)
		t.spans = grown
	}
	t.mu.Unlock()
}

// add records a finished span and returns its index, for children to
// name as their parent.
func (t *tracer) add(name nameID, parent int32, req, start, end int64) int32 {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// open records a span whose end is not known yet (a parent recorded
// before its children); finish closes it.
func (t *tracer) open(name string, parent int32, req int64) int32 {
	now := t.tick()
	return t.add(t.id(name), parent, req, now, now)
}

func (t *tracer) finish(i int32) {
	if t == nil {
		return
	}
	now := t.tick()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover. Children that overlap each
// other (parallel jobs) are counted once.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		reach := s.Start
		for _, k := range ks {
			lo, hi := k.lo, k.hi
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				self[i] -= hi - lo
				reach = hi
			}
		}
	}
	return self
}

// spanTotal sums duration, self time and count for one span name;
// totalsByName fills one per name from the spans recorded since from.
type spanTotal struct {
	Count int64
	Dur   int64
	Self  int64
}

func (t *tracer) totalsByName(from int) map[string]spanTotal {
	self := selfTimes(t.spans)
	out := make(map[string]spanTotal)
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		tot := out[t.name(s)]
		tot.Count++
		tot.Dur += s.End - s.Start
		tot.Self += self[i]
		out[t.name(s)] = tot
	}
	return out
}

// meanDur is the mean duration in ns of the spans called name (0 if none).
func (m spanTotal) meanDur() float64 {
	if m.Count == 0 {
		return 0
	}
	return float64(m.Dur) / float64(m.Count)
}

// writeSpans dumps the spans as one JSON array.
func (t *tracer) writeSpans(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type jsonSpan struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Req    int64  `json:"req"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[")
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(jsonSpan{t.name(s), s.Start, s.End, s.Parent, s.Req}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
