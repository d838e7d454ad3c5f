package main

import (
	"sort"
	"sync"
	"time"
)

// The traced run records spans around the benchmark's own calls into
// each layer's public functions. Spans stay in memory and are reduced
// when the run ends; nothing is written while the workload runs.
//
// A spanBuf belongs to one goroutine at a time (a paper experiment task,
// a fleet shard, a serve request slot), so recording takes no lock; the
// tracer only locks to register a buffer. A nil *spanBuf records nothing,
// which is how the untraced run calls the same code.

type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the causing span in the same buffer, -1 for none
}

type spanBuf struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its index, or -1 on a nil buffer.
func (b *spanBuf) begin(name string, parent int32) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent})
	return int32(len(b.spans) - 1)
}

// end closes the span begin returned.
func (b *spanBuf) end(i int32) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].end = int64(time.Since(b.epoch))
}

// do runs fn inside a span with no parent.
func (b *spanBuf) do(name string, fn func() error) error {
	i := b.begin(name, -1)
	err := fn()
	b.end(i)
	return err
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf registers a fresh buffer; on a nil tracer it returns nil, so every
// span call on the result is a no-op.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// spanTotals is the reduction of every span with one name.
type spanTotals struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // sum of durations minus the time child spans cover
}

// totals reduces all recorded spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it.
func (t *tracer) totals() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanTotals)
	for _, b := range t.bufs {
		children := make(map[int32][][2]int64)
		for _, s := range b.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
			}
		}
		for i, s := range b.spans {
			st := out[s.name]
			d := s.end - s.start
			st.count++
			st.total += time.Duration(d)
			st.self += time.Duration(d - covered(s.start, s.end, children[int32(i)]))
			out[s.name] = st
		}
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}
