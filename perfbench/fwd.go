package main

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

// fwd-4prb: bare A1 forwarding at the smallest frame size. One DPDK-mode
// engine with one worker runs a per-frame App that only redirects, the
// shape of the metro chain hop. Per slot, one producer offers 64 eAxC
// uplink streams × 14 symbols of 4-PRB BFP-9 frames through TryIngress.
const (
	fwdStreams = 64
	fwdPRBs    = 4
)

var (
	fwdDU   = eth.MAC{0x02, 0, 0, 0, 0x03, 0x01}
	fwdSelf = eth.MAC{0x02, 0, 0, 0, 0x03, 0x02}
	fwdRU   = eth.MAC{0x02, 0, 0, 0, 0x03, 0x03}
)

// redirectApp forwards every frame to next, the minimal bump in the wire.
type redirectApp struct{ next, self eth.MAC }

func (a *redirectApp) Name() string { return "fwd" }

func (a *redirectApp) Handle(ctx *core.Context, pkt *fh.Packet) error {
	return ctx.Redirect(pkt, a.next, a.self, -1)
}

type fwdWorkload struct {
	eng    *core.Engine
	sched  *sim.Scheduler
	rec    *recorder
	frames []slotFrame // one slot's inputs in offer order
	k      int         // absolute slot index of the next slot
	slots  int64       // slots run, set-up slot included
	offer  offerer

	done *slotDone
	bad  atomic.Int64 // outputs with wrong addressing or out of stream order
	// nextSeq is the sequence id the sink expects next per stream; the
	// output callback runs on the single engine worker only.
	nextSeq [fwdStreams]uint8
}

func newFwd(o buildOpts) (workload, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0x66776434))
	w := &fwdWorkload{rec: o.rec, sched: sim.NewScheduler(), done: newSlotDone(fwdStreams * phy.SymbolsPerSlot)}
	b := fh.NewBuilder(fwdRU, fwdSelf, -1)
	order := rng.Perm(fwdStreams) // stream order within a symbol
	w.frames = make([]slotFrame, 0, fwdStreams*phy.SymbolsPerSlot)
	seq := make([]uint8, fwdStreams)
	for i := range seq {
		seq[i] = uint8(rng.IntN(256))
		w.nextSeq[i] = seq[i]
	}
	for sym := 0; sym < phy.SymbolsPerSlot; sym++ {
		for _, s := range order {
			t := oran.Timing{Direction: oran.Uplink, SymbolID: uint8(sym)}
			tmpl, err := uplaneTemplate(b, ecpri.PcIDFromUint16(uint16(s)), t, randomGrid(rng, fwdPRBs, 2000))
			if err != nil {
				return nil, err
			}
			w.frames = append(w.frames, newSlotFrame(tmpl, t, seq[s]+uint8(sym), phy.SymbolsPerSlot))
		}
	}
	eng, err := core.NewEngine(w.sched, core.Config{
		Name:        "fwd-4prb",
		Mode:        core.ModeDPDK,
		App:         wrapApp(&redirectApp{next: fwdDU, self: fwdSelf}, o.rec, o.dropAt),
		CarrierPRBs: fwdPRBs,
		Cores:       1,
		Trace:       o.engineTrace,
	})
	if err != nil {
		return nil, err
	}
	eng.SetOutput(w.output)
	if err := eng.Start(); err != nil {
		return nil, err
	}
	w.eng = eng
	return w, nil
}

// output is the engine's transmit function: it checks that the frame was
// redirected to the DU and arrives in its stream's order.
func (w *fwdWorkload) output(frame []byte) {
	var t0 int64
	traced := w.rec.active()
	if traced {
		t0 = w.rec.now()
	}
	stream := uint16(frame[offPcID])<<8 | uint16(frame[offPcID+1])
	ok := eth.MAC(frame[0:6]) == fwdDU && eth.MAC(frame[6:12]) == fwdSelf && stream < fwdStreams
	if ok {
		ok = frame[offSeq] == w.nextSeq[stream]
		w.nextSeq[stream] = frame[offSeq] + 1
	}
	if !ok {
		w.bad.Add(1)
	}
	if traced {
		w.rec.work.add(span{start: t0, end: w.rec.now(), name: spanOutput, frames: 1})
	}
	w.done.output()
}

func (w *fwdWorkload) stage() {
	for i := range w.frames {
		w.frames[i].stage(w.k)
	}
}

func (w *fwdWorkload) slot() int {
	w.done.begin()
	start := time.Now()
	for i := range w.frames {
		if !w.offer.offer(w.eng, w.frames[i].buf, w.rec, start) {
			break
		}
	}
	w.done.wait()
	w.k++
	w.slots++
	return len(w.frames)
}

func (w *fwdWorkload) verify() int {
	got := int(w.done.got())
	missing := len(w.frames) - got
	if missing < 0 {
		missing = -missing
	}
	return missing + int(w.bad.Swap(0))
}

func (w *fwdWorkload) finish(c *checks) {
	w.eng.Stop()
	c.engineStats("fwd-4prb", w.eng.Snapshot())
	if w.offer.abandoned > 0 {
		c.fail(w.offer.abandoned, "fwd-4prb: %d frames never admitted", w.offer.abandoned)
	}
}

func (w *fwdWorkload) layers(l *layerStats) {
	l.engines = []*core.Engine{w.eng}
	l.sched = w.sched
	l.slots, l.offered = w.slots, w.slots*int64(len(w.frames))
	l.carrierPRBs = fwdPRBs
	l.admitRetries = w.offer.retries
	l.redirectApp = true
	for i := range w.frames {
		l.frames = append(l.frames, w.frames[i].buf)
	}
}

func (w *fwdWorkload) String() string {
	return fmt.Sprintf("fwd-4prb: %d streams × %d symbols of %d-PRB BFP-9 frames per slot, 1 worker", fwdStreams, phy.SymbolsPerSlot, fwdPRBs)
}
