package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"bluefi/internal/bt"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
)

// psdu-sec48: the paper's §4.8 timing experiment. One goroutine at
// GOMAXPROCS=1 synthesizes seeded DM1 packets PSDU-only with the fixed
// scale factor. Most packets go to a RealTime synthesizer; one packet
// in every psduBlock, at a seeded position, goes to a Quality one.

const (
	psduRing      = 512 // distinct seeded packets, cycled
	psduBlock     = 10  // one Quality packet per block
	psduCarrier   = 2426.0
	psduTracedOps = 1000 // the traced phase runs a fixed op count
	psduVerify    = 24   // ring slots re-synthesized on fresh synthesizers
	psduSetupReps = 5
)

type psduInput struct {
	air     []byte
	quality bool
}

// psduInputs builds the seeded packet ring: random 17-byte payloads and
// random clocks on the fixed device of the paper's §4.8 set-up.
func psduInputs(seed int64) ([]psduInput, error) {
	rng := rand.New(rand.NewSource(seed))
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	in := make([]psduInput, psduRing)
	for i := range in {
		payload := make([]byte, 17)
		rng.Read(payload)
		pkt := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: payload, Clock: uint32(rng.Intn(1 << 27))}
		air, err := pkt.AirBits(dev)
		if err != nil {
			return nil, fmt.Errorf("psdu inputs: %w", err)
		}
		in[i].air = air
	}
	for b := 0; b < psduRing; b += psduBlock {
		if q := b + rng.Intn(psduBlock); q < psduRing {
			in[q].quality = true
		}
	}
	return in, nil
}

// psduOptions is the §4.8 configuration: PSDU only, fixed scale, so no
// phase search or rehearsal runs.
func psduOptions(mode core.Mode, reg *obs.Registry) core.Options {
	opts := core.DefaultOptions()
	opts.Mode = mode
	opts.GFSK = gfsk.BRConfig()
	opts.PSDUOnly = true
	opts.DynamicScale = false
	opts.Telemetry = reg
	return opts
}

type psduState struct {
	rt, q *core.Synthesizer
}

// newPSDUState builds both synthesizers and runs one packet through
// each, so lazily built caches are filled before timing.
func newPSDUState(in []psduInput, rtReg, qReg *obs.Registry) (*psduState, error) {
	rt, err := core.New(psduOptions(core.RealTime, rtReg))
	if err != nil {
		return nil, err
	}
	q, err := core.New(psduOptions(core.Quality, qReg))
	if err != nil {
		return nil, err
	}
	for _, s := range []*core.Synthesizer{rt, q} {
		if _, err := s.Synthesize(in[0].air, psduCarrier); err != nil {
			return nil, fmt.Errorf("psdu warm-up: %w", err)
		}
	}
	return &psduState{rt: rt, q: q}, nil
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// psduPhase is what one measured loop saw.
type psduPhase struct {
	rtMs, qMs       []float64
	ops, failed     int
	elapsed         time.Duration
	failures        []string
	qAllocs, allocs allocCounter
}

// run synthesizes ring packets in order until the deadline passes or
// maxOps ops have run (maxOps 0 = no limit). digests holds the first
// PSDU digest per ring slot; every later synthesis of the slot must
// match it. countAllocs reads the allocation counters around the loop
// and around each Quality packet, so RealTime allocations can be told
// apart.
func (st *psduState) run(in []psduInput, digests []uint64, tr *tracer, deadline time.Time, maxOps int, countAllocs bool) psduPhase {
	var ph psduPhase
	start := time.Now()
	var a0 allocCounter
	if countAllocs {
		a0 = readAllocs()
	}
	for i := 0; ; i++ {
		if maxOps > 0 && i >= maxOps || maxOps == 0 && !time.Now().Before(deadline) {
			break
		}
		slot := i % len(in)
		p := in[slot]
		syn, name := st.rt, "rt"
		if p.quality {
			syn, name = st.q, "q"
		}
		var qa allocCounter
		if countAllocs && p.quality {
			qa = readAllocs()
		}
		root := tr.open("op", 0, 0)
		child := tr.open("core.Synthesize", root.Trace, root.ID)
		t0 := time.Now()
		res, err := syn.Synthesize(p.air, psduCarrier)
		d := time.Since(t0)
		tr.close(child)
		tr.close(root)
		if countAllocs && p.quality {
			ph.qAllocs = ph.qAllocs.add(readAllocs().sub(qa))
		}
		ph.ops++
		if err != nil {
			ph.fail(fmt.Sprintf("op %d (%s): %v", i, name, err))
			continue
		}
		if h := digest(res.PSDU); digests[slot] == 0 {
			digests[slot] = h
		} else if digests[slot] != h {
			ph.fail(fmt.Sprintf("op %d (%s): PSDU differs from the earlier synthesis of ring slot %d", i, name, slot))
			continue
		}
		if p.quality {
			ph.qMs = append(ph.qMs, ms(d))
		} else {
			ph.rtMs = append(ph.rtMs, ms(d))
		}
	}
	ph.elapsed = time.Since(start)
	if countAllocs {
		ph.allocs = readAllocs().sub(a0)
	}
	return ph
}

func (ph *psduPhase) fail(msg string) {
	ph.failed++
	if len(ph.failures) < 8 {
		ph.failures = append(ph.failures, msg)
	}
}

// verifyPSDU re-synthesizes a seeded sample of the ring slots the run
// covered on fresh synthesizers and compares with the run's digests,
// which catches state leaking from one call into the next.
func verifyPSDU(seed int64, in []psduInput, digests []uint64) (checked int, failures []string, err error) {
	fresh, err := newPSDUState(in[:1], nil, nil)
	if err != nil {
		return 0, nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, slot := range rng.Perm(len(in)) {
		if checked == psduVerify {
			break
		}
		if digests[slot] == 0 {
			continue
		}
		checked++
		syn := fresh.rt
		if in[slot].quality {
			syn = fresh.q
		}
		res, err := syn.Synthesize(in[slot].air, psduCarrier)
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("verify slot %d: %v", slot, err))
		case digest(res.PSDU) != digests[slot]:
			failures = append(failures, fmt.Sprintf("verify slot %d: fresh synthesizer gives a different PSDU", slot))
		}
	}
	return checked, failures, nil
}

func runPSDU(cfg config) (*report, error) {
	rep := newReport(cfg, 1)
	in, err := psduInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	st, setupS, err := timedSetup(psduSetupReps, func() (*psduState, error) { return newPSDUState(in, nil, nil) }, func(*psduState) {})
	if err != nil {
		return nil, err
	}
	digests := make([]uint64, len(in))
	ph := st.run(in, digests, nil, time.Now().Add(cfg.measureFor()), 0, cfg.trace)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.addOps(ph.ops, ph.failed, ph.failures)

	rtP50, rtP90, qP50 := quantile(ph.rtMs, 0.5), quantile(ph.rtMs, 0.9), quantile(ph.qMs, 0.5)
	pps := float64(ph.ops) / ph.elapsed.Seconds()
	rep.endToEnd(metric{Value: setupS, N: psduSetupReps}, metric{Value: rss, N: 1},
		metric{Value: rtP50, N: len(ph.rtMs)}, metric{Value: rtP90, N: len(ph.rtMs)}, metric{Value: pps, N: ph.ops})
	rep.named("rt_dm1_p50_ms", "ms", rtP50, len(ph.rtMs))
	rep.named("rt_dm1_p90_ms", "ms", rtP90, len(ph.rtMs))
	rep.named("q_dm1_p50_ms", "ms", qP50, len(ph.qMs))
	rep.named("packets_per_s", "1/s", pps, ph.ops)

	if cfg.trace {
		rtReg, qReg := obs.NewRegistry(), obs.NewRegistry()
		tst, err := newPSDUState(in, rtReg, qReg)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		rtD, qD := registryDelta{before: rtReg.Snapshot()}, registryDelta{before: qReg.Snapshot()}
		tph := tst.run(in, digests, tr, time.Time{}, psduTracedOps, false)
		rtD.after, qD.after = rtReg.Snapshot(), qReg.Snapshot()
		rep.addOps(tph.ops, tph.failed, tph.failures)
		rep.trace = tr
		rep.overhead(quantile(tph.rtMs, 0.5), rtP50)
		// Means, not medians, so that stages plus unspanned sum to synth.
		for _, m := range []struct {
			tag string
			d   registryDelta
			lat []float64
		}{{"rt", rtD, tph.rtMs}, {"q", qD, tph.qMs}} {
			n, synth := len(m.lat), mean(m.lat)
			rep.layer("core.synth_ms."+m.tag, "ms", synth, n)
			var staged float64
			for _, stage := range []string{"iqgen", "fftqam", "fec", "scramble"} {
				v := 1e3 * ratio(m.d.get("bluefi_core_stage_seconds", obs.L("stage", stage)).sum, float64(n))
				staged += v
				rep.layer("core."+stage+"_ms."+m.tag, "ms", v, n)
			}
			rep.layer("core.unspanned_ms."+m.tag, "ms", synth-staged, n)
		}
		rtN, qN := float64(len(tph.rtMs)), float64(len(tph.qMs))
		rtAllocs := ph.allocs.sub(ph.qAllocs)
		rtAllocN := float64(len(ph.rtMs))
		rep.layer("core.allocs_per_op.rt", "count", ratio(float64(rtAllocs.mallocs), rtAllocN), int(rtAllocN))
		rep.layer("core.alloc_bytes_per_op.rt", "B", ratio(float64(rtAllocs.bytes), rtAllocN), int(rtAllocN))
		steps := qD.get("bluefi_viterbi_trellis_steps_total").value
		inversions := rtD.get("bluefi_viterbi_rt_inversions_total").value
		rep.layer("viterbi.trellis_steps_per_op.q", "count", ratio(float64(steps), qN), int(qN))
		rep.layer("viterbi.rt_inversions_per_op.rt", "count", ratio(float64(inversions), rtN), int(rtN))
		rep.count("viterbi.trellis_steps.q", steps)
		rep.count("viterbi.rt_inversions.rt", inversions)
		rep.count("psdu.ops", int64(tph.ops))

		// a2dp-dm1x2 is not a BENCHMARK.json workload (its end-to-end
		// figures are too noisy on the reference host), so the traced run
		// of this synthesis workload also reports the audio path's layers.
		if _, err := traceA2DP(cfg.seed, rep, tr); err != nil {
			return nil, err
		}
	}

	checked, failures, err := verifyPSDU(cfg.seed, in, digests)
	if err != nil {
		return nil, err
	}
	rep.addChecks(checked, failures)
	return rep, nil
}
