package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// setups is how many fresh constructions setup_s is the median of.
const setups = 25

// runOpts configures one benchmark run.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setups is how many fresh constructions setup_s is the median of;
	// they are spread through the timed window.
	setups int
	// maxSlots caps the timed slots (0: the time budget alone decides);
	// the self-tests use it for short runs.
	maxSlots int
	// dropAt > 0 drops one frame in the App wrapper (negative self-test).
	dropAt int64
	// traceOut is where the traced run writes its spans ("" = nowhere).
	traceOut string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes a run: its environment, inputs, sample counts and
// checks. It is printed before the result.
type record struct {
	Workload    string  `json:"workload"`
	Describe    string  `json:"describe"`
	Seed        uint64  `json:"seed"`
	Trace       bool    `json:"trace"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	Setups      int     `json:"setups"`
	WarmupSlots int     `json:"warmup_slots"`
	SlotsTimed  int     `json:"slots_timed"`
	WindowS     float64 `json:"window_s"`
	SlotP50us   float64 `json:"slot_p50_us,omitempty"`
	// SlotP99us is the median of P99Blocks per-block 99th percentiles of
	// slot time, each over P99BlockSlots slots (BlockP99us in run order).
	// It is recorded, not a metric: hypervisor steal on a shared host moves
	// it far beyond any useful bound between runs of identical code.
	SlotP99us     float64 `json:"slot_p99_us,omitempty"`
	P99Blocks     int     `json:"p99_blocks,omitempty"`
	P99BlockSlots int     `json:"p99_block_slots,omitempty"`
	// BlockRates is the median frames_per_s of each block, in run order:
	// how steady the run was.
	BlockRates []float64 `json:"block_frames_per_s,omitempty"`
	BlockP99us []float64 `json:"block_p99_us,omitempty"`
	LossRatio  float64   `json:"loss_ratio"`
	Problems   []string  `json:"problems,omitempty"`
	Notes      []string  `json:"notes,omitempty"`
}

// runner drives one workload instance slot by slot and keeps the
// correctness ledger of the whole run.
type runner struct {
	opts     runOpts
	build    builder
	c        checks
	offered  uint64 // frames offered in every slot of the run
	failedAt int    // slots that failed verification
	setupS   []float64
	warmup   int
}

// warmSlots returns the warm-up length; short self-test runs cap it.
func (r *runner) warmSlots() int {
	if r.opts.maxSlots > 0 {
		return min(warmSlots, r.opts.maxSlots)
	}
	return warmSlots
}

func newRunner(o runOpts) (*runner, error) {
	b, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.setups < 1 {
		o.setups = 1
	}
	return &runner{opts: o, build: b}, nil
}

// construct builds a fresh workload and runs its first slot, verified.
func (r *runner) construct(bo buildOpts) (workload, error) {
	w, err := r.build(bo)
	if err != nil {
		return nil, err
	}
	r.untimedSlot(w, "set-up")
	return w, nil
}

// untimedSlot runs and verifies one slot outside the slot clock.
func (r *runner) untimedSlot(w workload, phase string) {
	w.stage()
	r.offered += uint64(w.slot())
	if bad := w.verify(); bad > 0 {
		r.failedAt++
		r.c.fail(uint64(bad), "%s: %s slot failed verification (%d frames)", r.opts.workload, phase, bad)
	}
}

// timeSetup times one fresh construction of the whole workload through
// its first verified slot.
func (r *runner) timeSetup(bo buildOpts) (workload, error) {
	t0 := time.Now()
	w, err := r.construct(bo)
	if err != nil {
		return nil, err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return w, nil
}

// warmSlots is the untimed warm-up before the timed window: enough slots
// for caches to fill and lazy set-up to finish. It is a slot count, not a
// time, so that the state the warm-up leaves (retained_heap_mb is read
// after it) does not depend on how fast the host ran.
const warmSlots = 1000

// warm runs n untimed slots and returns the mean slot time it saw.
func (r *runner) warm(w workload, n int) time.Duration {
	start := time.Now()
	done := 0
	for ; r.failedAt == 0 && done < n; done++ {
		r.untimedSlot(w, "warm-up")
	}
	r.warmup += done
	return time.Since(start) / time.Duration(max(done, 1))
}

// slotSamples holds per-slot service times and frame counts.
type slotSamples struct {
	ns     []int64
	frames []int32
}

func newSlotSamples(n int) slotSamples {
	return slotSamples{ns: make([]int64, 0, n), frames: make([]int32, 0, n)}
}

func (s *slotSamples) add(ns int64, frames int) {
	s.ns = append(s.ns, ns)
	s.frames = append(s.frames, int32(frames))
}

// nsPerFrame returns each slot's service time per frame offered, sorted.
func (s *slotSamples) nsPerFrame() []float64 {
	out := make([]float64, len(s.ns))
	for i := range s.ns {
		out[i] = ratio(float64(s.ns[i]), float64(s.frames[i]))
	}
	slices.Sort(out)
	return out
}

// timed runs slots for d (or until maxSlots) with the slot clock around
// slot() only; staging and verification happen outside it. A run stops
// timing at the first slot that fails verification. hook, when set, runs
// around each slot (the traced run uses it).
func (r *runner) timed(w workload, d time.Duration, s *slotSamples, hook *slotHook) {
	start := time.Now()
	for n := 0; r.failedAt == 0 && time.Since(start) < d && (r.opts.maxSlots == 0 || n < r.opts.maxSlots); n++ {
		if hook != nil {
			hook.before(n)
		}
		w.stage()
		t0 := time.Now()
		f := w.slot()
		ns := time.Since(t0).Nanoseconds()
		if hook != nil {
			hook.after(n, t0, ns, f)
		}
		r.offered += uint64(f)
		s.add(ns, f)
		if bad := w.verify(); bad > 0 {
			r.failedAt++
			r.c.fail(uint64(bad), "%s: timed slot %d failed verification (%d frames)", r.opts.workload, n, bad)
			return
		}
	}
}

// slotHook brackets each timed slot of the traced run.
type slotHook struct {
	before func(n int)
	after  func(n int, start time.Time, ns int64, frames int)
}

// capacity estimates the timed slots d holds from a warm-up slot time.
func capacity(d, slot time.Duration) int {
	if slot <= 0 {
		slot = time.Microsecond
	}
	return int(3*d/slot)/2 + 1024
}

func (r *runner) baseRecord(w workload) record {
	rec := record{
		Workload:   r.opts.workload,
		Seed:       r.opts.seed,
		Trace:      r.opts.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Setups:     len(r.setupS),
	}
	if s, ok := w.(fmt.Stringer); ok {
		rec.Describe = s.String()
	}
	return rec
}

// finishResult fills the correctness part of the result and record.
func (r *runner) finishResult(res *result, rec *record) {
	res.Attempted = max(r.offered, 1)
	res.Failed = min(r.c.failed, res.Attempted)
	res.Correct = r.c.failed == 0 && r.failedAt == 0
	rec.LossRatio = float64(res.Failed) / float64(res.Attempted)
	rec.Problems = r.c.problems
	rec.WarmupSlots = r.warmup
}

// p99Block is the slot count over which one 99th percentile is taken: ten
// samples lie beyond it.
const p99Block = 1000

// blockP99 returns each block's 99th-percentile slot time in µs, over
// consecutive blocks of p99Block slots. A run shorter than one block takes
// the percentile over all its slots.
func blockP99(ns []int64) []float64 {
	var p99s []float64
	block := make([]float64, 0, p99Block)
	for start := 0; start == 0 || start+p99Block <= len(ns); start += p99Block {
		block = block[:0]
		for _, v := range ns[start:min(start+p99Block, len(ns))] {
			block = append(block, float64(v)/1e3)
		}
		slices.Sort(block)
		p99s = append(p99s, quantile(block, 0.99))
	}
	return p99s
}

// runEndToEnd is the untraced run: set-up, warm-up, then the timed window
// whose slots give every end-to-end metric.
func runEndToEnd(o runOpts) (result, record, error) {
	r, err := newRunner(o)
	if err != nil {
		return result{}, record{}, err
	}
	w, err := r.timeSetup(buildOpts{seed: o.seed, dropAt: o.dropAt})
	if err != nil {
		return result{}, record{}, err
	}
	slot := r.warm(w, r.warmSlots())

	// Retained heap: the workload's state after set-up and the warm-up
	// slots. Reading it at a fixed slot count rather than at the end
	// keeps a leak that grows per slot (see README) from turning a faster
	// host into a larger heap.
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)

	window := time.Duration(o.seconds * float64(time.Second))
	s := newSlotSamples(capacity(window, slot))

	// The other set-up samples are taken at even intervals through the
	// window, so that setup_s sees the same host conditions as the slots
	// do, rather than one burst of them. Each throwaway instance is
	// finished at once; its allocations are taken out of the window's.
	segments := r.opts.setups
	var m0, m1, a, b runtime.MemStats
	var setupMallocs, setupBytes uint64
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < segments; i++ {
		r.timed(w, window/time.Duration(segments), &s, nil)
		if i == segments-1 || r.failedAt > 0 {
			break
		}
		runtime.ReadMemStats(&a)
		extra, err := r.timeSetup(buildOpts{seed: o.seed})
		if err != nil {
			return result{}, record{}, err
		}
		extra.finish(&r.c)
		runtime.ReadMemStats(&b)
		setupMallocs += b.Mallocs - a.Mallocs
		setupBytes += b.TotalAlloc - a.TotalAlloc
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	w.finish(&r.c)

	rec := r.baseRecord(w)
	rec.SlotsTimed = len(s.ns)
	rec.WindowS = elapsed.Seconds()
	res := result{Metrics: map[string]metric{}}
	r.finishResult(&res, &rec)
	if len(s.ns) == 0 {
		return res, rec, nil
	}

	rates := make([]float64, len(s.ns))
	var frames float64
	for i := range s.ns {
		rates[i] = float64(s.frames[i]) / (float64(s.ns[i]) / 1e9)
		frames += float64(s.frames[i])
	}
	for start := 0; start+p99Block <= len(rates); start += p99Block {
		rec.BlockRates = append(rec.BlockRates, math.Round(median(rates[start:start+p99Block])))
	}
	slices.Sort(rates)
	p99s := blockP99(s.ns)
	rec.SlotP99us = median(p99s)
	for _, v := range p99s {
		rec.BlockP99us = append(rec.BlockP99us, math.Round(v))
	}
	rec.SlotP50us = median(nsToUs(s.ns))
	rec.P99Blocks = len(p99s)
	rec.P99BlockSlots = min(p99Block, len(s.ns))
	if rec.P99BlockSlots < p99Block {
		rec.Notes = append(rec.Notes, fmt.Sprintf("slot_p99_us rests on %d slots, fewer than the 1000 that leave 10 samples beyond it", rec.P99BlockSlots))
	}

	res.Metrics["setup_s"] = metric{median(r.setupS), "s"}
	sorted := slices.Clone(r.setupS)
	slices.Sort(sorted)
	rec.Notes = append(rec.Notes, fmt.Sprintf("setup_s over %d constructions: min %.6f, quartiles %.6f / %.6f / %.6f, max %.6f",
		len(sorted), sorted[0], quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75), sorted[len(sorted)-1]))
	res.Metrics["frames_per_s"] = metric{quantile(rates, 0.5), "1/s"}
	res.Metrics["allocs_per_frame"] = metric{float64(m1.Mallocs-m0.Mallocs-setupMallocs) / frames, "allocs/frame"}
	res.Metrics["alloc_bytes_per_frame"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc-setupBytes) / frames, "B/frame"}
	res.Metrics["retained_heap_mb"] = metric{float64(mh.HeapAlloc) / 1e6, "MB"}
	return res, rec, nil
}

func nsToUs(ns []int64) []float64 {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	return us
}

// gcWindow measures GC activity over a window with runtime/metrics.
type gcWindow struct {
	samples []metrics.Sample
	cycles0 uint64
	gc0     float64
	total0  float64
}

func newGCWindow() *gcWindow {
	g := &gcWindow{samples: []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	metrics.Read(g.samples)
	g.cycles0, g.gc0, g.total0 = g.read()
	return g
}

func (g *gcWindow) read() (uint64, float64, float64) {
	return g.samples[0].Value.Uint64(), g.samples[1].Value.Float64(), g.samples[2].Value.Float64()
}

// end returns the GC cycles and the GC share of CPU time since start.
func (g *gcWindow) end() (cycles uint64, cpuFraction float64) {
	metrics.Read(g.samples)
	c, gc, total := g.read()
	return c - g.cycles0, ratio(gc-g.gc0, total-g.total0)
}
