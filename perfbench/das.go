package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"ranbooster/internal/apps/das"
	"ranbooster/internal/bfp"
	"ranbooster/internal/core"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
	"ranbooster/internal/sim"
)

// das-273prb: the DAS middlebox on a 273-PRB carrier with 4 RUs and one
// parallel worker. Per slot the DU sends 1 C-plane and 14 U-plane frames,
// each replicated to the 4 RUs (A1+A2), and the 4 RUs each send 14 uplink
// symbols, cached (A3) and merged (A4) into one frame per symbol for the
// DU: 71 frames in, 74 out and 14 merges.
const (
	dasPRBs = 273
	dasRUs  = 4
	// dasOut is the expected outputs per slot: 15 DL frames to each RU
	// plus one merged UL frame per symbol.
	dasOut = 15*dasRUs + phy.SymbolsPerSlot
)

var (
	dasDU   = eth.MAC{0x02, 0, 0, 0, 0x04, 0x01}
	dasSelf = eth.MAC{0x02, 0, 0, 0, 0x04, 0x02}
)

func dasRU(r int) eth.MAC { return eth.MAC{0x02, 0, 0, 0, 0x04, byte(0x10 + r)} }

type dasWorkload struct {
	eng    *core.Engine
	sched  *sim.Scheduler
	app    *das.App
	rec    *recorder
	frames []slotFrame // one slot's inputs in offer order
	dl     []int       // indexes into frames of the DL C-plane then DL U-plane frames
	// merged is the expected merged UL payload per symbol.
	merged [phy.SymbolsPerSlot][]byte
	k      int
	slots  int64
	offer  offerer

	done *slotDone
	outs [2 * dasOut][]byte // outputs of the current slot, written by the worker

	pkt fh.Packet // verify scratch
	msg oran.UPlaneMsg
}

func newDAS(o buildOpts) (workload, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0x64617332))
	w := &dasWorkload{rec: o.rec, sched: sim.NewScheduler(), done: newSlotDone(dasOut)}
	rus := make([]eth.MAC, dasRUs)
	for r := range rus {
		rus[r] = dasRU(r)
	}
	du := fh.NewBuilder(dasDU, dasSelf, -1)
	ruB := make([]*fh.Builder, dasRUs)
	for r := range ruB {
		ruB[r] = fh.NewBuilder(rus[r], dasSelf, -1)
	}
	duSeq := uint8(rng.IntN(256))
	ruSeq := make([]uint8, dasRUs)
	for r := range ruSeq {
		ruSeq[r] = uint8(rng.IntN(256))
	}

	ct := oran.Timing{Direction: oran.Downlink}
	cmsg := &oran.CPlaneMsg{
		Timing:      ct,
		SectionType: oran.SectionType1,
		Comp:        bfp9,
		Sections:    []oran.CSection{{NumPRB: dasPRBs, NumSymbol: phy.SymbolsPerSlot, ReMask: 0xfff}},
	}
	ctmpl := du.CPlane(ecpri.PcID{}, cmsg)
	if err := checkLayout(ctmpl); err != nil {
		return nil, err
	}
	w.dl = append(w.dl, len(w.frames))
	w.frames = append(w.frames, newSlotFrame(ctmpl, ct, duSeq, phy.SymbolsPerSlot+1))

	for sym := 0; sym < phy.SymbolsPerSlot; sym++ {
		dt := oran.Timing{Direction: oran.Downlink, SymbolID: uint8(sym)}
		tmpl, err := uplaneTemplate(du, ecpri.PcID{}, dt, randomGrid(rng, dasPRBs, 2000))
		if err != nil {
			return nil, err
		}
		w.dl = append(w.dl, len(w.frames))
		w.frames = append(w.frames, newSlotFrame(tmpl, dt, duSeq+1+uint8(sym), phy.SymbolsPerSlot+1))

		ut := oran.Timing{Direction: oran.Uplink, SymbolID: uint8(sym)}
		sum := iq.NewGrid(dasPRBs)
		for r := 0; r < dasRUs; r++ {
			g := randomGrid(rng, dasPRBs, 2000)
			tmpl, err := uplaneTemplate(ruB[r], ecpri.PcID{}, ut, g)
			if err != nil {
				return nil, err
			}
			w.frames = append(w.frames, newSlotFrame(tmpl, ut, ruSeq[r]+uint8(sym), phy.SymbolsPerSlot))
			// The reference merge: what each RU's compressed payload
			// decodes to, summed with saturation, compressed again.
			var p fh.Packet
			if err := p.Decode(tmpl); err != nil {
				return nil, err
			}
			if err := p.UPlane(&w.msg, dasPRBs); err != nil {
				return nil, err
			}
			dec := iq.NewGrid(dasPRBs)
			if _, err := bfp.DecompressGrid(w.msg.Sections[0].Payload, dec, bfp9); err != nil {
				return nil, err
			}
			sum.AddSat(dec)
		}
		merged, err := bfp.CompressGrid(nil, sum, bfp9)
		if err != nil {
			return nil, err
		}
		w.merged[sym] = merged
	}

	w.app = das.New(das.Config{Name: "das", MAC: dasSelf, DU: dasDU, RUs: rus, CarrierPRBs: dasPRBs})
	eng, err := core.NewEngine(w.sched, core.Config{
		Name:        "das-273prb",
		Mode:        core.ModeDPDK,
		App:         wrapApp(w.app, o.rec, o.dropAt),
		CarrierPRBs: dasPRBs,
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

// output keeps the frame for verify; it runs on the single engine worker.
func (w *dasWorkload) output(frame []byte) {
	var t0 int64
	traced := w.rec.active()
	if traced {
		t0 = w.rec.now()
	}
	if i := w.done.got(); i < int64(len(w.outs)) {
		w.outs[i] = frame
	}
	if traced {
		w.rec.work.add(span{start: t0, end: w.rec.now(), name: spanOutput, frames: 1})
	}
	w.done.output()
}

func (w *dasWorkload) stage() {
	for i := range w.frames {
		w.frames[i].stage(w.k)
	}
}

func (w *dasWorkload) slot() int {
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

// verify checks every output of the slot: each DL frame reached each RU
// byte-identical apart from addressing, and each symbol's merged UL frame
// reached the DU, in symbol order, carrying the reference merge.
func (w *dasWorkload) verify() int {
	got := int(w.done.got())
	bad := dasOut - got
	if bad < 0 {
		bad = -bad
	}
	var perRU [dasRUs]int
	sym := 0
	for _, frame := range w.outs[:min(got, len(w.outs))] {
		if w.pkt.Decode(frame) != nil || w.pkt.Eth.Src != dasSelf {
			bad++
			continue
		}
		if w.pkt.Eth.Dst == dasDU {
			if !w.mergedOK(sym) {
				bad++
			}
			sym++
			continue
		}
		r := int(w.pkt.Eth.Dst[5]) - 0x10
		t, err := w.pkt.Timing()
		if r < 0 || r >= dasRUs || w.pkt.Eth.Dst != dasRU(r) || err != nil {
			bad++
			continue
		}
		perRU[r]++
		src := w.frames[w.dl[0]].buf
		if w.pkt.Plane() == fh.PlaneU {
			src = w.frames[w.dl[1+int(t.SymbolID)%phy.SymbolsPerSlot]].buf
		}
		if !bytes.Equal(frame[eth.HeaderLen-2:], src[eth.HeaderLen-2:]) {
			bad++
		}
	}
	for _, n := range perRU {
		if n != 15 {
			bad++
		}
	}
	clear(w.outs[:])
	return bad
}

// mergedOK checks the decoded packet in w.pkt against symbol sym's
// reference merge.
func (w *dasWorkload) mergedOK(sym int) bool {
	if sym >= phy.SymbolsPerSlot || w.pkt.UPlane(&w.msg, dasPRBs) != nil ||
		len(w.msg.Sections) != 1 || int(w.msg.Timing.SymbolID) != sym {
		return false
	}
	return bytes.Equal(w.msg.Sections[0].Payload, w.merged[sym])
}

func (w *dasWorkload) finish(c *checks) {
	w.eng.Stop()
	c.engineStats("das-273prb", w.eng.Snapshot())
	if got, want := w.app.Merges.Load(), uint64(phy.SymbolsPerSlot)*uint64(w.slots); got != want {
		c.fail(diff(got, want)*dasRUs, "das-273prb: %d merges, want %d", got, want)
	}
	if w.offer.abandoned > 0 {
		c.fail(w.offer.abandoned, "das-273prb: %d frames never admitted", w.offer.abandoned)
	}
}

func (w *dasWorkload) layers(l *layerStats) {
	l.engines = []*core.Engine{w.eng}
	l.sched = w.sched
	l.slots, l.offered = w.slots, w.slots*int64(len(w.frames))
	l.carrierPRBs = dasPRBs
	l.admitRetries = w.offer.retries
	for i := range w.frames {
		l.frames = append(l.frames, w.frames[i].buf)
	}
	for _, i := range w.dl {
		l.replicated = append(l.replicated, w.frames[i].buf)
	}
	// Each merge decompresses every RU's symbol and compresses the sum.
	l.codecPRBs = int64(w.app.Merges.Load()) * (dasRUs + 1) * dasPRBs
	l.mergeRUs = dasRUs
}

func (w *dasWorkload) String() string {
	return fmt.Sprintf("das-273prb: DAS app, %d-PRB carrier, %d RUs, 1 worker; %d frames in, %d out, %d merges per slot",
		dasPRBs, dasRUs, len(w.frames), dasOut, phy.SymbolsPerSlot)
}
