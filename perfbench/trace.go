package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ranbooster/internal/core"
	"ranbooster/internal/fh"
)

// spanName identifies the call a span wraps. Spans are recorded only from
// the benchmark's own files, around its calls into the repository's
// layers: the engine's admission, the App boundary, the engine's output
// callback and the metro harness.
type spanName uint8

const (
	spanSlot     spanName = iota // root: one closed-loop slot
	spanAdmit                    // core.Engine.TryIngress
	spanApp                      // App wrapper: Handle or HandleBurst
	spanOutput                   // engine output callback (benchmark sink)
	spanRunSlots                 // testbed.Metro.RunSlots
	spanTap                      // fabric.Switch tap (benchmark copy)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"slot", "core.TryIngress", "core.App", "bench.output", "testbed.RunSlots", "bench.tap",
}

// span is one timed call, in nanoseconds since the recorder's epoch.
type span struct {
	start, end int64
	name       spanName
	frames     int32 // frames the call covered
}

// spanBuf collects the spans of one goroutine during one slot. Its
// capacity is fixed at set-up; spans beyond it are counted, not stored.
type spanBuf struct {
	spans   []span
	dropped int
}

func (b *spanBuf) add(s span) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// spanAgg accumulates span totals over the traced slots.
type spanAgg struct {
	slots   int64
	frames  int64
	slotNs  int64
	durNs   [numSpanNames]int64
	count   [numSpanNames]int64
	covered [numSpanNames]int64 // frames covered, per span name
	selfNs  int64               // root self time: slot time no child span covers
	dropped int64
}

// recorder keeps spans in memory: one buffer for the producer goroutine
// and one for the engine's worker (a single worker, Cores: 1), reset at
// every slot, plus the raw spans of the last keepSlots slots, written out
// when the run ends. The producer toggles on only between slots, before
// it offers the slot's frames; the engine's ring orders that write before
// the worker's reads.
type recorder struct {
	on    bool
	epoch time.Time
	prod  spanBuf
	work  spanBuf
	agg   spanAgg

	keepSlots int
	kept      [][]span // ring of the last keepSlots slots, root span first
	keptIDs   []int
	scratch   []span
}

func newRecorder(perSlot, keepSlots int) *recorder {
	return &recorder{
		epoch:     time.Now(),
		prod:      spanBuf{spans: make([]span, 0, perSlot)},
		work:      spanBuf{spans: make([]span, 0, perSlot)},
		keepSlots: keepSlots,
		scratch:   make([]span, 0, 2*perSlot),
	}
}

// active reports whether spans are being recorded; a nil recorder never is.
func (r *recorder) active() bool { return r != nil && r.on }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginSlot clears the per-goroutine buffers. Call it before the slot's
// first frame is offered.
func (r *recorder) beginSlot() {
	r.prod.spans = r.prod.spans[:0]
	r.work.spans = r.work.spans[:0]
	r.prod.dropped, r.work.dropped = 0, 0
}

// endSlot folds one finished slot into the totals: the root span is
// [start, end], every recorded span is its child, and the root's self time
// is the part of its interval that no child covers.
func (r *recorder) endSlot(id int, start, end int64, frames int) {
	a := &r.agg
	a.slots++
	a.frames += int64(frames)
	a.slotNs += end - start
	a.dropped += int64(r.prod.dropped + r.work.dropped)
	children := append(append(r.scratch[:0], r.prod.spans...), r.work.spans...)
	for _, s := range children {
		a.durNs[s.name] += s.end - s.start
		a.count[s.name]++
		a.covered[s.name] += int64(s.frames)
	}
	slices.SortFunc(children, func(x, y span) int {
		switch {
		case x.start < y.start:
			return -1
		case x.start > y.start:
			return 1
		}
		return 0
	})
	covered, reach := int64(0), start
	for _, s := range children {
		lo, hi := max(s.start, reach), min(s.end, end)
		if hi > lo {
			covered += hi - lo
		}
		reach = max(reach, s.end)
	}
	a.selfNs += end - start - covered
	r.scratch = children

	if r.keepSlots == 0 {
		return
	}
	slot := append([]span{{start: start, end: end, name: spanSlot, frames: int32(frames)}}, children...)
	if len(r.kept) == r.keepSlots {
		r.kept, r.keptIDs = r.kept[1:], r.keptIDs[1:]
	}
	r.kept = append(r.kept, slot)
	r.keptIDs = append(r.keptIDs, id)
}

// writeSpans writes the kept slots as JSON lines, one span per line; the
// root span has parent -1 and every other span is its child.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, slot := range r.kept {
		for j, s := range slot {
			parent := 0
			if j == 0 {
				parent = -1
			}
			rec := struct {
				Slot    int    `json:"slot"`
				Span    int    `json:"span"`
				Parent  int    `json:"parent"`
				Name    string `json:"name"`
				StartNs int64  `json:"start_ns"`
				EndNs   int64  `json:"end_ns"`
				Frames  int32  `json:"frames"`
			}{r.keptIDs[i], j, parent, spanNames[s.name], s.start, s.end, s.frames}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedApp wraps the workload's App: with the recorder on, it records a
// span around each call; with dropAt > 0 it drops that frame (1-based, in
// arrival order) instead of handing it on, which is how the benchmark's
// self-test proves the correctness gate fires. It keeps the inner App's
// invocation path: wrap returns a BurstApp exactly when the inner App is
// one.
type tracedApp struct {
	inner  core.App
	rec    *recorder
	dropAt int64
	seen   int64 // touched only by the single engine worker
}

type tracedBurstApp struct {
	*tracedApp
	burst core.BurstApp
}

// wrapApp returns app itself when there is nothing to record or drop.
func wrapApp(app core.App, rec *recorder, dropAt int64) core.App {
	if rec == nil && dropAt == 0 {
		return app
	}
	t := &tracedApp{inner: app, rec: rec, dropAt: dropAt}
	if b, ok := app.(core.BurstApp); ok {
		return tracedBurstApp{tracedApp: t, burst: b}
	}
	return t
}

func (a *tracedApp) Name() string { return a.inner.Name() }

// drops reports whether the next frame is the one to drop.
func (a *tracedApp) drops() bool {
	a.seen++
	return a.dropAt > 0 && a.seen == a.dropAt
}

func (a *tracedApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	if a.drops() {
		ctx.Drop(pkt)
		return nil
	}
	if !a.rec.active() {
		return a.inner.Handle(ctx, pkt)
	}
	t0 := a.rec.now()
	err := a.inner.Handle(ctx, pkt)
	a.rec.work.add(span{start: t0, end: a.rec.now(), name: spanApp, frames: 1})
	return err
}

func (a tracedBurstApp) HandleBurst(ctx *core.Context, pkts []*fh.Packet) error {
	if a.dropAt > 0 {
		for i := range pkts {
			if a.drops() {
				ctx.Drop(pkts[i])
				pkts = append(pkts[:i:i], pkts[i+1:]...)
				break
			}
		}
		if len(pkts) == 0 {
			return nil
		}
	}
	if !a.rec.active() {
		return a.burst.HandleBurst(ctx, pkts)
	}
	t0 := a.rec.now()
	err := a.burst.HandleBurst(ctx, pkts)
	a.rec.work.add(span{start: t0, end: a.rec.now(), name: spanApp, frames: int32(len(pkts))})
	return err
}

// describeAgg renders the span totals per frame, for the run record.
func describeAgg(a *spanAgg) string {
	s := fmt.Sprintf("traced slots %d, frames %d, slot %.1f ns/frame, root self %.1f ns/frame",
		a.slots, a.frames, ratio(float64(a.slotNs), float64(a.frames)), ratio(float64(a.selfNs), float64(a.frames)))
	for n := spanAdmit; n < numSpanNames; n++ {
		if a.count[n] > 0 {
			s += fmt.Sprintf("; %s %d calls %.1f ns/frame", spanNames[n], a.count[n], ratio(float64(a.durNs[n]), float64(a.frames)))
		}
	}
	if a.dropped > 0 {
		s += fmt.Sprintf("; %d spans dropped (buffer full)", a.dropped)
	}
	return s
}
