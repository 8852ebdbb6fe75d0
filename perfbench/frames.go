package main

import (
	"fmt"
	"math/rand/v2"

	"ranbooster/internal/bfp"
	"ranbooster/internal/ecpri"
	"ranbooster/internal/eth"
	"ranbooster/internal/fh"
	"ranbooster/internal/iq"
	"ranbooster/internal/oran"
	"ranbooster/internal/phy"
)

// Byte offsets inside an untagged fronthaul frame, fixed by the Ethernet
// and eCPRI header encodings.
const (
	offPcID   = eth.HeaderLen + 4               // eCPRI PC_ID, 2 bytes
	offSeq    = eth.HeaderLen + 6               // eCPRI SEQ_ID
	offTiming = eth.HeaderLen + ecpri.HeaderLen // O-RAN timing header
)

// bfp9 is the 9-bit block floating point compression every workload uses.
var bfp9 = bfp.Params{IQWidth: 9, Method: bfp.MethodBlockFloatingPoint}

// slotFrame is one input frame of a slot. The template is built once at
// set-up; every slot copies it into buf (the engine rewrites addressing in
// place, so a buffer is only good for one slot), then stamps the stream's
// next eCPRI sequence id and the slot's timing. Staging allocates nothing.
type slotFrame struct {
	tmpl, buf []byte
	timing    oran.Timing
	// seqBase is the stream's sequence id in slot 0; seqPerSlot is how
	// many frames the stream sends per slot.
	seqBase, seqPerSlot uint8
}

func newSlotFrame(tmpl []byte, timing oran.Timing, seqBase, seqPerSlot uint8) slotFrame {
	return slotFrame{
		tmpl:       tmpl,
		buf:        make([]byte, len(tmpl)),
		timing:     timing,
		seqBase:    seqBase,
		seqPerSlot: seqPerSlot,
	}
}

// stage writes the frame for absolute slot k into buf.
func (f *slotFrame) stage(k int) {
	copy(f.buf, f.tmpl)
	f.buf[offSeq] = f.seqBase + uint8(k)*f.seqPerSlot
	t := f.timing
	t.FrameID = uint8(k / phy.SlotsPerFrame)
	t.SubframeID = uint8(k % phy.SlotsPerFrame / phy.SlotsPerSubframe)
	t.SlotID = uint8(k % phy.SlotsPerSubframe)
	t.AppendTo(f.buf[offTiming:offTiming])
}

// checkLayout confirms the fixed offsets against a decoded template, so a
// change to the header encodings fails set-up instead of corrupting
// frames silently.
func checkLayout(tmpl []byte) error {
	var p fh.Packet
	if err := p.Decode(tmpl); err != nil {
		return fmt.Errorf("template does not decode: %w", err)
	}
	if p.Eth.HasVLAN || p.Ecpri.SeqID != tmpl[offSeq] ||
		p.Ecpri.PcID.Uint16() != uint16(tmpl[offPcID])<<8|uint16(tmpl[offPcID+1]) ||
		len(tmpl)-len(p.App) < offTiming {
		return fmt.Errorf("template layout differs from the fixed offsets")
	}
	return nil
}

// randomGrid returns n PRBs of IQ samples uniform in ±amp.
func randomGrid(rng *rand.Rand, n int, amp int) iq.Grid {
	g := iq.NewGrid(n)
	for i := range g {
		for j := range g[i] {
			g[i][j] = iq.Sample{
				I: int16(rng.IntN(2*amp+1) - amp),
				Q: int16(rng.IntN(2*amp+1) - amp),
			}
		}
	}
	return g
}

// uplaneTemplate builds one U-plane frame carrying grid as a single
// BFP-9 section.
func uplaneTemplate(b *fh.Builder, pc ecpri.PcID, t oran.Timing, grid iq.Grid) ([]byte, error) {
	payload, err := bfp.CompressGrid(nil, grid, bfp9)
	if err != nil {
		return nil, err
	}
	msg := &oran.UPlaneMsg{
		Timing:   t,
		Sections: []oran.USection{{NumPRB: len(grid), Comp: bfp9, Payload: payload}},
	}
	frame := b.UPlane(pc, msg)
	return frame, checkLayout(frame)
}
