package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"ranbooster/internal/core"
	"ranbooster/internal/fabric"
	"ranbooster/internal/sim"
)

// workload is one constructed benchmark workload. Its methods are called
// from one goroutine, the producer; fwd-4prb and das-273prb also run one
// engine worker goroutine between construction and finish.
type workload interface {
	// stage prepares the next slot's inputs. It is not timed.
	stage()
	// slot runs one closed-loop slot: offer the staged frames and return
	// once every expected output has arrived (or the slot deadline has
	// passed). It returns the frames offered.
	slot() int
	// verify checks the slot just run and returns how many frames were not
	// delivered as expected. It is not timed.
	verify() int
	// finish stops every goroutine the workload started and runs the
	// end-of-run checks.
	finish(c *checks)
	// layers exposes what the per-layer metrics and replays need.
	layers(l *layerStats)
}

// buildOpts are the inputs of a workload constructor.
type buildOpts struct {
	seed uint64
	// rec records spans around the calls into each layer (nil: off).
	rec *recorder
	// engineTrace turns on the engines' own span collector (Config.Trace).
	engineTrace bool
	// dropAt > 0 drops that frame inside the App wrapper: the
	// correctness gate's negative case.
	dropAt int64
}

type builder func(buildOpts) (workload, error)

var workloads = map[string]builder{
	"fwd-4prb":   newFwd,
	"das-273prb": newDAS,
	"metro-xdp":  newMetro,
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerStats is what a workload exposes to the per-layer metrics.
type layerStats struct {
	engines []*core.Engine
	// sched is the scheduler the engines (and metro's fabric) run on.
	sched *sim.Scheduler
	// slots and offered count the instance's slots and frames offered,
	// set-up and warm-up included.
	slots, offered int64
	carrierPRBs    int
	admitRetries   uint64
	// redirectApp is set when the App only redirects (A1), so its span
	// time is what cpu.CostForward models.
	redirectApp bool
	// frames are the inputs of the last slot (metro: the frames hop 0
	// received while capture was on), replayed through the wire decoders.
	frames [][]byte
	// replicated are the frames the App replicates (A2).
	replicated [][]byte
	// codecPRBs counts PRBs the App decompressed plus compressed;
	// mergeRUs is how many RU streams one merge combines.
	codecPRBs int64
	mergeRUs  int
	// Metro only: the scenario's switches, and the frames each hop's
	// engine received while capture was on.
	switches  []*fabric.Switch
	hopFrames [][][]byte
}

// checks collects failed correctness checks; failed counts the frames
// they cost.
type checks struct {
	failed   uint64
	problems []string
}

func (c *checks) fail(frames uint64, format string, args ...any) {
	if frames == 0 {
		frames = 1
	}
	c.failed += frames
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// engineStats fails the run on any engine counter that means a frame was
// lost, refused or damaged.
func (c *checks) engineStats(name string, st core.Stats) {
	for _, f := range []struct {
		what string
		n    uint64
	}{
		{"AppDrops", st.AppDrops}, {"AppErrors", st.AppErrors}, {"ParseError", st.ParseError},
		{"SeqGaps", st.SeqGaps}, {"Duplicates", st.Duplicates}, {"RingDrops", st.RingDrops},
		{"ShedUPlane", st.ShedUPlane},
	} {
		if f.n != 0 {
			c.fail(f.n, "%s: Stats.%s = %d, want 0", name, f.what, f.n)
		}
	}
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// slotDeadline bounds how long a slot may wait for its outputs before it
// counts as failed; a correct slot takes well under a millisecond.
const slotDeadline = 2 * time.Second

// offerer offers frames through TryIngress, retrying while the ring is
// full, and counts the refusals.
type offerer struct {
	retries   uint64
	abandoned uint64
}

// offer hands frame to the engine; it gives up (and counts the frame as
// abandoned) only if the ring stays full past the slot deadline.
func (o *offerer) offer(e *core.Engine, frame []byte, rec *recorder, start time.Time) bool {
	for {
		var ok bool
		if rec.active() {
			t0 := rec.now()
			ok = e.TryIngress(frame)
			rec.prod.add(span{start: t0, end: rec.now(), name: spanAdmit, frames: 1})
		} else {
			ok = e.TryIngress(frame)
		}
		if ok {
			return true
		}
		o.retries++
		if o.retries&255 == 0 && time.Since(start) > slotDeadline {
			o.abandoned++
			return false
		}
		runtime.Gosched()
	}
}

// slotDone signals the producer once a slot's last expected output has
// arrived. The producer blocks on it rather than spinning: a spinning
// producer would compete with the engine worker for the core it shares
// through hyperthreading, and a Go timer sleep cannot wake it at
// sub-millisecond precision.
type slotDone struct {
	out   atomic.Int64 // outputs seen in the current slot
	want  int64
	done  chan struct{}
	timer *time.Timer
}

func newSlotDone(want int64) *slotDone {
	t := time.NewTimer(slotDeadline)
	t.Stop()
	return &slotDone{want: want, done: make(chan struct{}, 1), timer: t}
}

// begin resets the count before the slot's first frame is offered.
func (d *slotDone) begin() { d.out.Store(0) }

// output counts one output; it runs on the engine worker.
func (d *slotDone) output() {
	if d.out.Add(1) == d.want {
		d.done <- struct{}{}
	}
}

// wait blocks until every expected output arrived or the slot deadline
// passed.
func (d *slotDone) wait() {
	d.timer.Reset(slotDeadline)
	select {
	case <-d.done:
	case <-d.timer.C:
	}
	if !d.timer.Stop() {
		select {
		case <-d.timer.C:
		default:
		}
	}
}

// got returns the outputs seen in the current slot.
func (d *slotDone) got() int64 { return d.out.Load() }
