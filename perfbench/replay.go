package main

import (
	"time"

	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/eth"
	"ranbooster/internal/fabric"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/sim"
	"ranbooster/internal/testbed"
)

// replays holds the layer costs measured by replaying the workload's own
// inputs through each layer's public functions, in ns.
type replays struct {
	decodeNs, uplaneNs       float64 // per frame
	decompressNs, compressNs float64 // per PRB
	mergeNs                  float64 // per merge
	cloneNs                  float64 // per copy
	cachePutNs, cacheTakeNs  float64 // per call
	hopEngineNs              float64 // per injected frame, all hops
	forwardNs                float64 // per switch traversal
	traversals               float64 // switch traversals per injected frame
	eventNs                  float64 // per scheduler event
	synthNs                  float64 // per frame the metro cells build
}

// replayBudget is the minimum time each replay runs; minRounds the
// minimum number of timed rounds it takes the median of.
const (
	replayBudget = 100 * time.Millisecond
	minRounds    = 5
)

// timeLoop times body (which handles n items per call) until replayBudget
// has passed and at least minRounds calls ran. It returns the median over
// calls of ns per item, so a round the host interrupted does not move it.
func timeLoop(n int, body func()) float64 {
	if n == 0 {
		return 0
	}
	var per []float64
	for start := time.Now(); len(per) < minRounds || time.Since(start) < replayBudget; {
		t0 := time.Now()
		body()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

func replayLayers(l *layerStats) replays {
	var rp replays
	pkts := decodeAll(l.frames)
	rp.decodeNs = timeLoop(len(l.frames), func() {
		var p fh.Packet
		for _, f := range l.frames {
			_ = p.Decode(f)
		}
	})
	var uplane []*fh.Packet
	for _, p := range pkts {
		if p.Plane() == fh.PlaneU {
			uplane = append(uplane, p)
		}
	}
	var msg oran.UPlaneMsg
	rp.uplaneNs = timeLoop(len(uplane), func() {
		for _, p := range uplane {
			_ = p.UPlane(&msg, l.carrierPRBs)
		}
	})
	if l.mergeRUs > 0 {
		replayDAS(l, uplane, &rp)
	}
	if l.hopFrames != nil {
		replayMetro(l, &rp)
	}
	return rp
}

func decodeAll(frames [][]byte) []*fh.Packet {
	pkts := make([]*fh.Packet, 0, len(frames))
	for _, f := range frames {
		p := new(fh.Packet)
		if p.Decode(f) == nil {
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// replayDAS times the codec, merge, replication and cache work of the DAS
// App on its own frames. ul are the RU uplink frames, grouped by symbol
// in offer order (RU 0..n-1 of symbol 0, then symbol 1, ...).
func replayDAS(l *layerStats, uplane []*fh.Packet, rp *replays) {
	var ul []*fh.Packet
	for _, p := range uplane {
		if t, err := p.Timing(); err == nil && t.Direction == oran.Uplink {
			ul = append(ul, p)
		}
	}
	payloads := make([][]byte, len(ul))
	var msg oran.UPlaneMsg
	for i, p := range ul {
		if p.UPlane(&msg, l.carrierPRBs) != nil {
			return
		}
		payloads[i] = msg.Sections[0].Payload
	}
	prbs := 0
	grids := make([]iq.Grid, len(payloads))
	for i, pl := range payloads {
		n := len(pl) / bfp9.PRBSize()
		grids[i] = iq.NewGrid(n)
		prbs += n
	}
	rp.decompressNs = timeLoop(prbs, func() {
		for i, pl := range payloads {
			_, _ = bfp.DecompressGrid(pl, grids[i], bfp9)
		}
	})
	buf := make([]byte, 0, len(payloads[0]))
	rp.compressNs = timeLoop(prbs, func() {
		for _, g := range grids {
			buf, _ = bfp.CompressGrid(buf[:0], g, bfp9)
		}
	})

	// One merge: decompress every RU's symbol, sum, compress the sum.
	n := l.mergeRUs
	acc, scratch := iq.NewGrid(len(grids[0])), iq.NewGrid(len(grids[0]))
	merges := len(payloads) / n
	rp.mergeNs = timeLoop(merges, func() {
		for m := 0; m < merges; m++ {
			_, _ = bfp.DecompressGrid(payloads[m*n], acc, bfp9)
			for _, pl := range payloads[m*n+1 : m*n+n] {
				_, _ = bfp.DecompressGrid(pl, scratch, bfp9)
				acc.AddSat(scratch)
			}
			buf, _ = bfp.CompressGrid(buf[:0], acc, bfp9)
		}
	})

	rep := decodeAll(l.replicated)
	rp.cloneNs = timeLoop(len(rep), func() {
		for _, p := range rep {
			cloneSink = p.Clone()
		}
	})

	keys := make([]fh.Key, len(ul))
	for i, p := range ul {
		keys[i], _ = fh.KeyOf(p)
	}
	cache := core.NewCache(time.Millisecond)
	var put, take []float64
	for start := time.Now(); len(put) < minRounds || time.Since(start) < replayBudget; {
		t0 := time.Now()
		for i, p := range ul {
			cache.Put(keys[i], p, 0)
		}
		t1 := time.Now()
		for i := 0; i < len(ul); i += n {
			_ = cache.Take(keys[i])
		}
		t2 := time.Now()
		put = append(put, float64(t1.Sub(t0).Nanoseconds())/float64(len(ul)))
		take = append(take, float64(t2.Sub(t1).Nanoseconds())/float64(len(ul)/n))
		cache.Sweep(sim.Time(time.Hour)) // drop the sweep queue between rounds
	}
	rp.cachePutNs = median(put)
	rp.cacheTakeNs = median(take)
}

// replayMetro times the metro layers on the frames each hop received:
// a fresh XDP engine with the hop's rule per hop, a standalone fabric
// topology, the scheduler's event dispatch and the cells' frame builder.
func replayMetro(l *layerStats, rp *replays) {
	injected := len(l.hopFrames[0])
	if injected == 0 {
		return
	}
	sinkMAC := eth.MAC{0x02, 0, 0, 0, 0x02, 0xff}
	carrier := testbed.Carrier100().NumPRB
	for k, frames := range l.hopFrames {
		next := sinkMAC
		if k < len(l.hopFrames)-1 {
			next = hopMAC(k + 1)
		}
		bufs := make([][]byte, len(frames))
		for i, f := range frames {
			bufs[i] = append([]byte(nil), f...)
		}
		var per []float64
		for start := time.Now(); len(per) < minRounds || time.Since(start) < replayBudget; {
			sched := sim.NewScheduler()
			e, err := core.NewEngine(sched, core.Config{
				Name:        "replay",
				Mode:        core.ModeXDP,
				CarrierPRBs: carrier,
				Kernel: &core.KernelProgram{Rules: []core.Rule{{
					Verdict: core.VerdictTx,
					Rewrite: &core.Rewrite{SetDst: &next},
				}}},
			})
			if err != nil {
				return
			}
			e.SetOutput(func([]byte) {})
			t0 := time.Now()
			for _, f := range bufs {
				e.Ingress(f)
				sched.Run()
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(bufs)))
		}
		rp.hopEngineNs += median(per) * float64(len(frames)) / float64(injected)
	}

	// Switch traversals per injected frame, from the port counters: every
	// Port.Send is one switch ingress.
	var sends uint64
	for _, sw := range l.switches {
		for _, p := range sw.Ports() {
			sends += p.Stats().TxFrames
		}
	}
	rp.traversals = ratio(float64(sends), float64(l.offered))

	// One switch forward with its delivery event, on a standalone topology.
	sched := sim.NewScheduler()
	topo := fabric.NewTopology(sched)
	sw, err := topo.AddSwitch("replay", 2*time.Microsecond, 100)
	if err != nil {
		return
	}
	in := sw.AddPort("in", nil)
	out := sw.AddPort("out", func([]byte) {})
	if topo.Learn(hopMAC(0), -1, out) != nil {
		return
	}
	frames := l.hopFrames[0]
	rp.forwardNs = timeLoop(len(frames), func() {
		for _, f := range frames {
			in.Send(f)
			sched.Run()
		}
	})

	// Scheduler dispatch: one slot's worth of events, queued a slot's
	// frame count at a time, the depth the injector leaves the queue at.
	perSlot := int(ratio(float64(l.sched.Processed()), float64(l.slots)))
	depth := max(int(ratio(float64(l.offered), float64(l.slots))), 1)
	es := sim.NewScheduler()
	fn := func() {}
	blocks := max(perSlot/depth, 1)
	rp.eventNs = timeLoop(blocks*depth, func() {
		for b := 0; b < blocks; b++ {
			now := es.Now()
			for i := 0; i < depth; i++ {
				es.At(now.Add(time.Duration(i)*time.Microsecond), fn)
			}
			es.Run()
		}
	})

	// The cells' frame synthesis: one message and one built frame per
	// arrival, as testbed.Metro's injector does.
	var p fh.Packet
	var tmpl oran.UPlaneMsg
	if p.Decode(frames[0]) != nil || p.UPlane(&tmpl, carrier) != nil {
		return
	}
	b := fh.NewBuilder(p.Eth.Src, p.Eth.Dst, -1)
	payload := tmpl.Sections[0].Payload
	rp.synthNs = timeLoop(len(frames), func() {
		for range frames {
			msg := &oran.UPlaneMsg{
				Timing:   tmpl.Timing,
				Sections: []oran.USection{{NumPRB: 4, Comp: bfp9, Payload: payload}},
			}
			synthSink = b.UPlane(p.Ecpri.PcID, msg)
		}
	})
}

// synthSink and cloneSink keep replayed results alive so the compiler
// cannot drop the calls that produce them.
var (
	synthSink []byte
	cloneSink *fh.Packet
)
