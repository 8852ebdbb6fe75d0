package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ranbooster/internal/cpu"
)

// The traced run measures each layer; its slot times never feed an
// end-to-end metric. It runs one workload instance through three phases of
// its time budget, then replays the workload's own inputs through the
// layers that cannot be split from outside:
//
//	A (25%) untraced baseline: slot time, GC cycles and GC CPU share;
//	B (25%) alternating blocks of slots on this instance and on a twin
//	        built with the engines' own span collector (Config.Trace) on;
//	C (50%) spans recorded around every call into a layer.
const (
	phaseA = 0.25
	phaseB = 0.25
	phaseC = 0.50
	// blockSlots is the phase B block length per instance.
	blockSlots = 16
	// captureSlots is how many phase C slots metro taps for the replays.
	captureSlots = 32
	// keepSlots is how many slots of raw spans the run writes out.
	keepSlots = 16
	// spansPerSlot bounds each goroutine's spans per slot; the largest
	// need is fwd-4prb's worker, with an App and an output span per frame.
	spansPerSlot = 4096
)

// perLayerUnits lists every per-layer metric with its unit. Every traced
// run reports all of them; a layer a workload never reaches reads 0.
var perLayerUnits = []struct{ name, unit string }{
	{"core.engine_ns_per_frame", "ns"},
	{"core.admit_ns_per_frame", "ns"},
	{"core.admit_retries_per_kframe", "count"},
	{"core.frames_per_app_call", "count"},
	{"core.app_ns_per_frame", "ns"},
	{"core.kernel_retired_share", "ratio"},
	{"core.tx_per_rx", "ratio"},
	{"fh.decode_ns_per_frame", "ns"},
	{"oran.uplane_ns_per_frame", "ns"},
	{"bfp.decompress_ns_per_prb", "ns"},
	{"bfp.compress_ns_per_prb", "ns"},
	{"bfp.prbs_per_frame", "count"},
	{"fabric.forward_ns_per_hop", "ns"},
	{"fabric.flooded_per_kframe", "count"},
	{"sim.events_per_frame", "count"},
	{"sim.event_ns", "ns"},
	{"testbed.harness_share", "ratio"},
	{"runtime.gc_per_mframe", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"telemetry.engine_trace_ratio", "ratio"},
	{"bench.stage_ns_per_frame", "ns"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// runTraced is the per-layer run.
func runTraced(o runOpts, report io.Writer) (result, record, error) {
	r, err := newRunner(o)
	if err != nil {
		return result{}, record{}, err
	}
	rec := newRecorder(spansPerSlot, keepSlots)
	w, err := r.timeSetup(buildOpts{seed: o.seed, rec: rec, dropAt: o.dropAt})
	if err != nil {
		return result{}, record{}, err
	}
	slot := r.warm(w, r.warmSlots())
	total := time.Duration(o.seconds * float64(time.Second))
	v := map[string]float64{}

	// Phase A: untraced baseline on the same instance.
	sA := newSlotSamples(capacity(scale(total, phaseA), slot))
	gcw := newGCWindow()
	r.timed(w, scale(total, phaseA), &sA, nil)
	cycles, gcFrac := gcw.end()
	framesA := sumFrames(&sA)
	v["runtime.gc_per_mframe"] = ratio(float64(cycles)*1e6, framesA)
	v["runtime.gc_cpu_fraction"] = gcFrac
	baseline := median(sA.nsPerFrame())

	// Phase B: the engines' own span collector, on against off.
	if r.failedAt == 0 {
		twin, err := r.construct(buildOpts{seed: o.seed, engineTrace: true})
		if err != nil {
			return result{}, record{}, err
		}
		n := capacity(scale(total, phaseB), slot)
		off, on := newSlotSamples(n), newSlotSamples(n)
		deadline := time.Now().Add(scale(total, phaseB))
		saved := r.opts.maxSlots
		r.opts.maxSlots = blockSlots
		for time.Now().Before(deadline) && r.failedAt == 0 {
			r.timed(w, total, &off, nil)
			r.timed(twin, total, &on, nil)
		}
		r.opts.maxSlots = saved
		twin.finish(&r.c)
		v["telemetry.engine_trace_ratio"] = ratio(median(on.nsPerFrame()), median(off.nsPerFrame()))
	}

	// Phase C: spans around every call into a layer.
	sC := newSlotSamples(capacity(scale(total, phaseC), slot))
	var stageNs time.Duration
	var stageStart time.Time
	capt, _ := w.(*metroWorkload)
	hook := &slotHook{
		before: func(n int) {
			if capt != nil {
				capt.capture = n < captureSlots
			}
			stageStart = time.Now()
			rec.beginSlot()
			rec.on = true
		},
		after: func(n int, start time.Time, ns int64, frames int) {
			// Staging ran between before and the slot clock.
			stageNs += start.Sub(stageStart)
			s := start.Sub(rec.epoch).Nanoseconds()
			rec.endSlot(n, s, s+ns, frames)
		},
	}
	if r.failedAt == 0 {
		r.timed(w, scale(total, phaseC), &sC, hook)
	}
	rec.on = false
	if capt != nil {
		capt.capture = false
	}
	w.finish(&r.c)

	res := result{Metrics: map[string]metric{}}
	rc := r.baseRecord(w)
	rc.SlotsTimed = len(sA.ns) + len(sC.ns)
	rc.WindowS = o.seconds
	r.finishResult(&res, &rc)

	a := &rec.agg
	traced := median(sC.nsPerFrame())
	v["bench.trace_overhead_ratio"] = ratio(traced, baseline)
	v["bench.stage_ns_per_frame"] = ratio(float64(stageNs.Nanoseconds()), float64(a.frames))

	var l layerStats
	w.layers(&l)
	rp := replayLayers(&l)
	layerMetrics(v, a, &l, rp)

	for _, m := range perLayerUnits {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	rc.Notes = append(rc.Notes, describeAgg(a))
	writeReport(report, o.workload, v, a, &l, rp)
	if o.traceOut != "" && r.failedAt == 0 {
		if err := rec.writeSpans(o.traceOut); err != nil {
			rc.Notes = append(rc.Notes, "spans not written: "+err.Error())
		} else {
			rc.Notes = append(rc.Notes, "spans of the last traced slots written to "+o.traceOut)
		}
	}
	return res, rc, nil
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

func sumFrames(s *slotSamples) float64 {
	var n float64
	for _, f := range s.frames {
		n += float64(f)
	}
	return n
}

// layerMetrics derives the per-layer metrics from the span totals, the
// workload's counters and the replays.
func layerMetrics(v map[string]float64, a *spanAgg, l *layerStats, rp replays) {
	frames := float64(a.frames)
	perFrame := func(ns int64) float64 { return ratio(float64(ns), frames) }

	if l.hopFrames == nil {
		// Engine-only workloads: the engine is the slot minus the App and
		// the benchmark's own output callback.
		v["core.engine_ns_per_frame"] = perFrame(a.slotNs - a.durNs[spanApp] - a.durNs[spanOutput])
	} else {
		v["core.engine_ns_per_frame"] = rp.hopEngineNs
		slotNs := perFrame(a.slotNs - a.durNs[spanTap])
		v["testbed.harness_share"] = 1 - ratio(rp.hopEngineNs, slotNs)
	}
	v["core.admit_ns_per_frame"] = perFrame(a.durNs[spanAdmit])
	v["core.admit_retries_per_kframe"] = ratio(float64(l.admitRetries)*1e3, float64(l.offered))
	v["core.frames_per_app_call"] = ratio(float64(a.covered[spanApp]), float64(a.count[spanApp]))
	v["core.app_ns_per_frame"] = perFrame(a.durNs[spanApp])

	var rx, tx, retired uint64
	for _, e := range l.engines {
		st := e.Snapshot()
		rx += st.RxFrames
		tx += st.TxFrames
		retired += st.KernelRetired
	}
	v["core.kernel_retired_share"] = ratio(float64(retired), float64(rx))
	v["core.tx_per_rx"] = ratio(float64(tx), float64(rx))

	v["fh.decode_ns_per_frame"] = rp.decodeNs
	v["oran.uplane_ns_per_frame"] = rp.uplaneNs
	v["bfp.decompress_ns_per_prb"] = rp.decompressNs
	v["bfp.compress_ns_per_prb"] = rp.compressNs
	v["bfp.prbs_per_frame"] = ratio(float64(l.codecPRBs), float64(l.offered))

	var flooded uint64
	for _, sw := range l.switches {
		flooded += sw.Flooded()
	}
	v["fabric.forward_ns_per_hop"] = rp.forwardNs
	v["fabric.flooded_per_kframe"] = ratio(float64(flooded)*1e3, float64(l.offered))
	if l.sched != nil {
		v["sim.events_per_frame"] = ratio(float64(l.sched.Processed()), float64(l.offered))
	}
	v["sim.event_ns"] = rp.eventNs
}

// writeReport prints the traced run's tables: where a slot's time goes,
// layer by layer, and each measured cost beside the internal/cpu constant
// that models it (the paper's Appendix A.2 cost table).
func writeReport(out io.Writer, name string, v map[string]float64, a *spanAgg, l *layerStats, rp replays) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: per-layer breakdown, ns per frame offered\n", name)
	slotNs := ratio(float64(a.slotNs-a.durNs[spanTap]), float64(a.frames))
	type row struct {
		layer  string
		ns     float64
		source string
		nested bool // part of another row, not a self time of its own
	}
	var rows []row
	var remainder float64
	var remainderWhat string
	if l.hopFrames == nil {
		rows = []row{
			{"core (TryIngress)", v["core.admit_ns_per_frame"], "span, producer goroutine", false},
			{"app (App wrapper)", v["core.app_ns_per_frame"], "span, worker goroutine", false},
			{"bench (output callback)", ratio(float64(a.durNs[spanOutput]), float64(a.frames)), "span, worker goroutine", false},
			{"core (engine internals)", ratio(float64(a.selfNs), float64(a.frames)) - rp.decodeNs,
				"root self time (no span covers it: ring, dispatch, emit, wake-ups) minus the fh replay", false},
			{"fh (decode)", rp.decodeNs, "replay", false},
		}
		if rp.decompressNs > 0 {
			codec := (rp.decompressNs*float64(l.mergeRUs) + rp.compressNs) / float64(l.mergeRUs+1) * v["bfp.prbs_per_frame"]
			rows = append(rows, row{"bfp (codec, inside app)", codec, "replay; part of the app row", true})
		}
		remainder = 0
		remainderWhat = "none: slot time outside every span is the root's self time, which only the engine " +
			"worker and the offer loop occupy, charged to the engine above. Producer and worker spans " +
			"overlap in time, so the rows sum past 100%."
	} else {
		traversals := rp.traversals
		rows = []row{
			{"core (hop engines)", rp.hopEngineNs, "replay through fresh XDP engines", false},
			{"fabric (switch forwards)", rp.forwardNs * traversals, fmt.Sprintf("replay, %.2f switch traversals per frame", traversals), false},
			{"testbed (frame synthesis)", rp.synthNs, "replay of the cells' frame builder", false},
			{"testbed (sink decode)", rp.decodeNs, "fh replay", false},
		}
		var sum float64
		for _, r := range rows {
			sum += r.ns
		}
		remainder = slotNs - sum
		remainderWhat = "RunSlots time no replay accounts for: Poisson draws, sink bookkeeping, " +
			"cache effects of the full scenario (negative: replays in isolation ran slower)"
	}
	fmt.Fprintf(&b, "slot: %.1f ns/frame over %d traced slots (%d frames)\n", slotNs, a.slots, a.frames)
	largest := rows[0]
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %10.1f ns  %5.1f%%  %s\n", r.layer, r.ns, 100*ratio(r.ns, slotNs), r.source)
		if !r.nested && r.ns > largest.ns {
			largest = r
		}
	}
	fmt.Fprintf(&b, "  %-28s %10.1f ns  %5.1f%%  %s\n", "unattributed", remainder, 100*ratio(remainder, slotNs), remainderWhat)
	fmt.Fprintf(&b, "largest self time: %s (%.1f ns/frame)\n", largest.layer, largest.ns)

	fmt.Fprintf(&b, "# %s: cost model (internal/cpu) vs measured Go\n", name)
	var redirectNs float64
	if l.redirectApp {
		redirectNs = v["core.app_ns_per_frame"]
	}
	model := []struct {
		what     string
		modelNs  float64
		measured float64
		source   string
	}{
		{"CostParse", ns(cpu.CostParse), rp.decodeNs, "fh.Packet.Decode replay, per frame"},
		{"CostForward", ns(cpu.CostForward), redirectNs, "App wrapper around Context.Redirect, per frame (fwd-4prb)"},
		{"CostReplicate", ns(cpu.CostReplicate), rp.cloneNs, "fh.Packet.Clone replay, per copy (das-273prb)"},
		{"CostCacheInsert", ns(cpu.CostCacheInsert), rp.cachePutNs, "core.Cache.Put replay (das-273prb)"},
		{"CostCacheTake", ns(cpu.CostCacheTake), rp.cacheTakeNs, "core.Cache.Take replay (das-273prb)"},
		{"CostKernelRule+CostKernelTx", ns(cpu.CostKernelRule + cpu.CostKernelTx), rp.hopEngineNs / float64(max(len(l.hopFrames), 1)),
			"whole XDP engine Ingress per hop frame, replay (metro-xdp)"},
		{"DecompressCost(1)", ns(cpu.DecompressCost(1000)) / 1000, rp.decompressNs, "bfp.DecompressGrid replay, per PRB (das-273prb)"},
		{"MergeCost(1,0) compress", ns(cpu.MergeCost(1000, 0)) / 1000, rp.compressNs, "bfp.CompressGrid replay, per PRB (das-273prb)"},
		{fmt.Sprintf("MergeCost(273,%d)", max(l.mergeRUs, 4)), ns(cpu.MergeCost(273, max(l.mergeRUs, 4))), rp.mergeNs, "decompress+sum+compress replay, per merge (das-273prb)"},
	}
	for _, m := range model {
		if m.measured == 0 {
			fmt.Fprintf(&b, "  %-28s model %8.1f ns  measured      n/a  (not on this workload's path)\n", m.what, m.modelNs)
			continue
		}
		fmt.Fprintf(&b, "  %-28s model %8.1f ns  measured %8.1f ns  (×%.2f)  %s\n", m.what, m.modelNs, m.measured, m.measured/m.modelNs, m.source)
	}
	fmt.Fprint(out, b.String())
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
