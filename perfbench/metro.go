package main

import (
	"fmt"

	"ranbooster/internal/eth"
	"ranbooster/internal/testbed"
)

// metro-xdp: testbed.Metro in its deterministic inline mode on one
// goroutine: 16 floors × 4 cells × 4 ports = 256 eAxC streams through a
// chain of 2 XDP engines whose kernel rule redirects every frame, so the
// userspace App is bypassed. Cells draw Poisson arrivals with a mean of 4
// frames per slot each. One RunSlots(1) call is one slot.
var metroConfig = testbed.MetroConfig{
	Floors: 16, CellsPerFloor: 4, PortsPerRU: 4,
	ChainDepth:  2,
	MeanPerSlot: 4,
	Kernel:      true,
}

type metroWorkload struct {
	m   *testbed.Metro
	rec *recorder
	// sink is the far end's view after the previous slot.
	sink  testbed.MetroSinkStats
	slots int64
	last  int // frames injected in the last slot

	// taps holds copies of the frames each hop's switch handed towards
	// its engine while capture is on, for the layer replays.
	capture bool
	taps    [][][]byte
}

func newMetro(o buildOpts) (workload, error) {
	if o.dropAt > 0 {
		return nil, fmt.Errorf("metro-xdp has no App to drop frames in")
	}
	cfg := metroConfig
	cfg.Seed = o.seed
	cfg.Trace = o.engineTrace
	m, err := testbed.NewMetro(cfg)
	if err != nil {
		return nil, err
	}
	w := &metroWorkload{m: m, rec: o.rec, taps: make([][][]byte, len(m.Engines))}
	for k, sw := range m.Topo.Switches() {
		k := k
		mac := hopMAC(k)
		sw.SetTap(func(frame []byte) { w.tap(k, mac, frame) })
	}
	return w, nil
}

// hopMAC is the address testbed.Metro gives chain hop k.
func hopMAC(k int) eth.MAC { return eth.MAC{0x02, 0, 0, 0, 0x02, byte(k + 1)} }

// tap copies frames addressed to hop k's engine while capture is on.
func (w *metroWorkload) tap(k int, mac eth.MAC, frame []byte) {
	if !w.capture || len(frame) < 6 || eth.MAC(frame[0:6]) != mac {
		return
	}
	var t0 int64
	traced := w.rec.active()
	if traced {
		t0 = w.rec.now()
	}
	w.taps[k] = append(w.taps[k], append([]byte(nil), frame...))
	if traced {
		w.rec.prod.add(span{start: t0, end: w.rec.now(), name: spanTap, frames: 1})
	}
}

func (w *metroWorkload) stage() {}

func (w *metroWorkload) slot() int {
	before := w.m.Injected()
	if w.rec.active() {
		t0 := w.rec.now()
		w.m.RunSlots(1)
		w.rec.prod.add(span{start: t0, end: w.rec.now(), name: spanRunSlots})
	} else {
		w.m.RunSlots(1)
	}
	w.last = int(w.m.Injected() - before)
	w.slots++
	return w.last
}

// verify checks that every frame injected in the slot reached the sink,
// with no gap, duplicate, reordering or parse error on any stream.
func (w *metroWorkload) verify() int {
	s := w.m.Sink()
	bad := int(diff(s.Delivered-w.sink.Delivered, uint64(w.last)))
	bad += int(s.Gaps - w.sink.Gaps + s.Duplicates - w.sink.Duplicates +
		s.Reordered - w.sink.Reordered + s.ParseErrors - w.sink.ParseErrors)
	w.sink = s
	return bad
}

func (w *metroWorkload) finish(c *checks) {
	rep := w.m.Conservation(0)
	if err := rep.Check(); err != nil {
		c.fail(diff(rep.Injected, rep.Sink.Delivered), "metro-xdp: %v", err)
	}
	s := w.m.Sink()
	if n := s.Gaps + s.Duplicates + s.Reordered + s.ParseErrors; n > 0 {
		c.fail(n, "metro-xdp: sink saw %d gaps, %d duplicates, %d reordered, %d parse errors",
			s.Gaps, s.Duplicates, s.Reordered, s.ParseErrors)
	}
	if s.Delivered != w.m.Injected() {
		c.fail(diff(s.Delivered, w.m.Injected()), "metro-xdp: injected %d, delivered %d", w.m.Injected(), s.Delivered)
	}
	for k, e := range w.m.Engines {
		c.engineStats(fmt.Sprintf("metro-xdp hop %d", k), e.Snapshot())
	}
	for _, sw := range w.m.Topo.Switches() {
		if n := sw.Flooded() + sw.Dropped(); n > 0 {
			c.fail(n, "metro-xdp: %v flooded %d, dropped %d", sw, sw.Flooded(), sw.Dropped())
		}
	}
}

func (w *metroWorkload) layers(l *layerStats) {
	l.engines = w.m.Engines
	l.sched = w.m.Sched
	l.switches = w.m.Topo.Switches()
	l.slots, l.offered = w.slots, int64(w.m.Injected())
	l.carrierPRBs = testbed.Carrier100().NumPRB
	l.hopFrames = w.taps
	if len(w.taps) > 0 {
		l.frames = w.taps[0]
	}
}

func (w *metroWorkload) String() string {
	c := metroConfig
	return fmt.Sprintf("metro-xdp: %d streams, chain of %d XDP redirect engines, Poisson mean %.0f frames per cell per slot, inline",
		c.Streams(), c.ChainDepth, c.MeanPerSlot)
}
