package core

import (
	"bytes"
	"math/rand"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
	"bluefi/internal/gfsk"
	"bluefi/internal/wifi"
)

// beaconAirBits builds a representative BLE advertisement (30 bytes of
// data + 6-byte address, as in §3 of the paper).
func beaconAirBits(t testing.TB, ch int) []byte {
	t.Helper()
	adv := &bt.Advertisement{
		PDUType: bt.AdvNonconnInd,
		AdvA:    [6]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66},
		Data: []byte{
			0x02, 0x01, 0x06,
			0x1A, 0xFF, 0x4C, 0x00, 0x02, 0x15, // iBeacon header
			1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, // UUID
			0x00, 0x01, 0x00, 0x02, 0xC5, // major/minor/power
		},
	}
	air, err := adv.AirBits(ch)
	if err != nil {
		t.Fatal(err)
	}
	return air
}

func TestPlanChannelsMatchesPaperExample(t *testing.T) {
	// §2.6: Bluetooth channel 38 (2426 MHz) is covered by WiFi channels
	// 2–5 at subcarriers 28.8, 12.8, −3.2, −19.2; channel 3 wins with the
	// nearest pilot 1.8125 MHz away.
	plans := PlanChannels(2426)
	if len(plans) != 3 {
		// Channel 2 would place the carrier at subcarrier +28.8, outside
		// the usable data region, so only channels 3–5 qualify.
		t.Fatalf("%d candidate channels, want 3", len(plans))
	}
	if plans[0].WiFiChannel != 3 {
		t.Fatalf("best channel %d, want 3", plans[0].WiFiChannel)
	}
	got := map[int]float64{}
	for _, p := range plans {
		got[p.WiFiChannel] = p.Subcarrier
	}
	for ch, want := range map[int]float64{3: 12.8, 4: -3.2, 5: -19.2} {
		if d := got[ch] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("channel %d subcarrier %g, want %g", ch, got[ch], want)
		}
	}
	// Channel 2 would put it at +28.8, outside the usable data region, so
	// it is correctly excluded by the band check.
	best, err := BestChannel(2426)
	if err != nil || best.WiFiChannel != 3 {
		t.Fatalf("BestChannel = %+v, %v", best, err)
	}
	if d := best.PilotDistanceMHz - 1.8125; d > 1e-9 || d < -1e-9 {
		t.Errorf("pilot distance %g MHz, want 1.8125", best.PilotDistanceMHz)
	}
}

func TestPlanChannelsRejectsUncoveredFrequency(t *testing.T) {
	if _, err := BestChannel(2500); err == nil {
		t.Error("accepted 2500 MHz")
	}
	if _, err := PlanForChannel(2480, 1); err == nil {
		t.Error("channel 1 cannot cover 2480 MHz")
	}
}

func TestDesignCPSatisfiesConstraints(t *testing.T) {
	g := gfsk.BRConfig()
	g.CenterOffset = 4e6
	theta, err := g.PhaseSignal(beaconAirBits(t, 38))
	if err != nil {
		t.Fatal(err)
	}
	// Pad to symbol multiple.
	for len(theta)%symbolLen != 0 {
		theta = append(theta, theta[len(theta)-1])
	}
	hat, err := DesignCP(theta, wifi.ShortGI)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := VerifyCPStructure(hat, wifi.ShortGI)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-12 {
		t.Fatalf("CP constraint violated by %g rad", worst)
	}
	// Corruption confined to ≤ 9 samples per 72 (paper: <250 ns per edge).
	for N := 0; N+symbolLen <= len(theta); N += symbolLen {
		diffs := 0
		for n := 0; n < symbolLen; n++ {
			if wrapDiff(hat[N+n], theta[N+n]) > 1e-12 {
				diffs++
			}
		}
		if diffs > 9 {
			t.Fatalf("symbol at %d corrupts %d samples", N, diffs)
		}
	}
	// Windowing no-op: body[0] of each symbol equals the next symbol's
	// first sample.
	for N := symbolLen; N+symbolLen <= len(hat); N += symbolLen {
		if wrapDiff(hat[N-symbolLen+wifi.ShortGI], hat[N]) > 1e-12 {
			t.Fatalf("windowing extension mismatch at symbol %d", N/symbolLen)
		}
	}
}

func TestDesignCPValidation(t *testing.T) {
	if _, err := DesignCP(make([]float64, 71), wifi.ShortGI); err == nil {
		t.Error("accepted misaligned phase signal")
	}
	if _, err := DesignCP(make([]float64, 72), 1); err == nil {
		t.Error("accepted guard of 1")
	}
	if _, err := VerifyCPStructure(make([]float64, 71), wifi.ShortGI); err == nil {
		t.Error("verify accepted misaligned signal")
	}
}

func TestSubcarrierWeightBands(t *testing.T) {
	off := 4e6 // subcarrier 12.8
	if w := SubcarrierWeight(13, off); w != WeightImportant {
		t.Fatalf("subcarrier 13: weight %g", w)
	}
	if w := SubcarrierWeight(9, off); w != WeightImportant {
		t.Fatalf("subcarrier 9 (1.19 MHz away): weight %g", w)
	}
	if w := SubcarrierWeight(20, off); w != WeightAdjacent {
		t.Fatalf("subcarrier 20: weight %g", w)
	}
	if w := SubcarrierWeight(-28, off); w != WeightDontCare {
		t.Fatalf("subcarrier −28: weight %g", w)
	}
}

func TestNewValidatesOptions(t *testing.T) {
	bad := []Options{
		{WiFiChannel: 99},
		{WiFiChannel: 3, ScaleFactor: 3},
		{WiFiChannel: 3, LeadSymbols: 99},
		{WiFiChannel: 3, GFSK: gfsk.Config{SampleRate: 10e6, BitRate: 1e6, Deviation: 160e3, BT: 0.5}},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
	// Zero-value options get defaults.
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Options().WiFiChannel != 3 || s.Options().ScaleFactor != 0.5 || s.Options().LeadSymbols != 2 {
		t.Fatalf("defaults not applied: %+v", s.Options())
	}
}

func TestSynthesizePSDUMatchesChipForwardChain(t *testing.T) {
	// The predicted waveform must be EXACTLY what a standards-compliant
	// transmitter emits for the returned PSDU — BlueFi's core promise.
	for _, mode := range []Mode{Quality, RealTime} {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.GFSK = gfsk.BLEConfig()
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Synthesize(beaconAirBits(t, 38), 2426)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := wifi.NewTransmitter(wifi.TxConfig{
			MCS: mode.MCS(), ShortGI: true, ScramblerSeed: opts.ScramblerSeed,
			Windowing: true, Preamble: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		chipWave, err := tx.Transmit(res.PSDU)
		if err != nil {
			t.Fatal(err)
		}
		if len(chipWave) != len(res.Waveform) {
			t.Fatalf("%v: waveform length %d vs %d", mode, len(chipWave), len(res.Waveform))
		}
		worst := 0.0
		for i := range chipWave {
			d := chipWave[i] - res.Waveform[i]
			if m := real(d)*real(d) + imag(d)*imag(d); m > worst {
				worst = m
			}
		}
		if worst > 1e-18 {
			t.Fatalf("%v: predicted waveform differs from chip output (worst |d|² = %g)", mode, worst)
		}
	}
}

func TestSynthesizeImportantBitsNeverFlip(t *testing.T) {
	for _, mode := range []Mode{Quality, RealTime} {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.GFSK = gfsk.BLEConfig()
		s, _ := New(opts)
		res, err := s.Synthesize(beaconAirBits(t, 38), 2426)
		if err != nil {
			t.Fatal(err)
		}
		if res.PacketImportantFlips != 0 {
			t.Fatalf("%v: %d important coded bits flipped within the packet", mode, res.PacketImportantFlips)
		}
		if res.Flips == 0 {
			t.Logf("%v: zero flips at all (surprising but not wrong)", mode)
		}
		frac := float64(res.Flips) / float64(res.CodedBits)
		if frac > 0.34 {
			t.Fatalf("%v: flip fraction %.3f exceeds 1/3", mode, frac)
		}
	}
}

func TestSynthesizePhaseFidelity(t *testing.T) {
	opts := DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	s, _ := New(opts)
	res, err := s.Synthesize(beaconAirBits(t, 38), 2426)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseRMSE == 0 {
		t.Fatal("phase RMSE not computed")
	}
	if res.PhaseRMSE > 0.4 {
		t.Fatalf("in-band phase RMSE %.3f rad too high for reception", res.PhaseRMSE)
	}
	t.Logf("phase RMSE = %.3f rad, flips = %d/%d", res.PhaseRMSE, res.Flips, res.CodedBits)
}

func TestEndToEndBLEBeaconThroughBlueFi(t *testing.T) {
	// The headline result: PSDUs synthesized by BlueFi, transmitted by a
	// standards-compliant 802.11n chain, received over a noisy channel,
	// decode on unmodified Bluetooth receivers. Reception is not
	// error-free (the paper itself reports 1.9-63% PER depending on the
	// channel, and our simulated discriminator receiver is a few dB less
	// capable than commercial chips), so the assertion is over an
	// ensemble of advertisements.
	if testing.Short() {
		t.Skip("long experiment")
	}
	opts := DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 20
	for _, prof := range []btrx.Profile{btrx.Pixel, btrx.S6, btrx.IPhone} {
		ok := 0
		var rssi float64
		for trial := 0; trial < n; trial++ {
			data := make([]byte, 24)
			rng.Read(data)
			adv := &bt.Advertisement{PDUType: bt.AdvNonconnInd, AdvA: [6]byte{1, 2, 3, 4, 5, 6}, Data: data}
			air, err := adv.AirBits(38)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Synthesize(air, 2426)
			if err != nil {
				t.Fatal(err)
			}
			ch := channel.Default(18, 1.5)
			ch.Seed = int64(trial)
			rx, err := ch.Apply(res.Waveform)
			if err != nil {
				t.Fatal(err)
			}
			rcv, err := btrx.NewReceiver(prof, res.Plan.OffsetHz, bt.Device{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := rcv.ReceiveBLE(rx, 38)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Detected && rep.Result.OK {
				ok++
				rssi = rep.RSSIdBm
			}
		}
		if ok == 0 {
			t.Fatalf("%s: no beacon decoded in %d attempts", prof.Name, n)
		}
		t.Logf("%s: %d/%d beacons decoded, RSSI %.1f dBm", prof.Name, ok, n, rssi)
	}
}

func TestEndToEndBRPacketThroughBlueFi(t *testing.T) {
	// Classic BR packet (as the audio app sends) in real-time mode.
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: []byte("bluefi audio")}
	opts := DefaultOptions()
	opts.Mode = RealTime
	s, _ := New(opts)
	// Bluetooth channel 24 = 2426 MHz: the best-planned frequency within
	// WiFi channel 3 (1.8 MHz clear of the nearest pilot).
	ok := 0
	var lastPayload []byte
	for trial := 0; trial < 20; trial++ {
		pkt.Clock = uint32(24 + 2*trial)
		airBits, err := pkt.AirBits(dev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Synthesize(airBits, 2426)
		if err != nil {
			t.Fatal(err)
		}
		ch := channel.Default(18, 1.5)
		ch.Seed = int64(trial)
		rxWave, _ := ch.Apply(res.Waveform)
		rcv, _ := btrx.NewReceiver(btrx.Sniffer, res.Plan.OffsetHz, dev)
		rep, err := rcv.ReceiveBR(rxWave, pkt.Clock)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected && rep.Result.OK {
			ok++
			lastPayload = rep.Result.Payload
		}
	}
	if ok == 0 {
		t.Fatal("no BR packet decoded through BlueFi in 20 slots")
	}
	if string(lastPayload) != "bluefi audio" {
		t.Fatalf("payload %q", lastPayload)
	}
	t.Logf("BR real-time mode: %d/20 packets decoded", ok)
}

func TestSynthesizeErrors(t *testing.T) {
	s, _ := New(DefaultOptions())
	if _, err := s.Synthesize(nil, 2426); err == nil {
		t.Error("accepted empty air bits")
	}
	if _, err := s.Synthesize([]byte{1, 0}, 2480); err == nil {
		t.Error("accepted frequency outside channel 3")
	}
}

func TestDynamicScaleStillDecodes(t *testing.T) {
	opts := DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	opts.DynamicScale = true
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Synthesize(beaconAirBits(t, 38), 2426)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseRMSE > 0.4 {
		t.Fatalf("dynamic scale in-band RMSE %.3f", res.PhaseRMSE)
	}
}

func TestMotherWeightsErasures(t *testing.T) {
	w := make([]float64, 312)
	for i := range w {
		w[i] = float64(i + 1)
	}
	mw, err := MotherWeights(w, wifi.Rate5_6, 260)
	if err != nil {
		t.Fatal(err)
	}
	if len(mw) != 520 {
		t.Fatalf("mother weights %d, want 520", len(mw))
	}
	zero, nonzero := 0, 0
	for _, v := range mw {
		if v == 0 {
			zero++
		} else {
			nonzero++
		}
	}
	if nonzero != 312 || zero != 208 {
		t.Fatalf("nonzero %d zero %d, want 312/208", nonzero, zero)
	}
}

func TestTimingsRecorded(t *testing.T) {
	opts := DefaultOptions()
	s, _ := New(opts)
	res, err := s.Synthesize(beaconAirBits(t, 38), 2426)
	if err != nil {
		t.Fatal(err)
	}
	tt := res.Timings
	if tt.Total() <= 0 {
		t.Fatal("no timing recorded")
	}
	if tt.FEC <= 0 || tt.FFTQAM <= 0 {
		t.Fatalf("stage timings missing: %+v", tt)
	}
}

func TestGFSKStartAlignment(t *testing.T) {
	opts := DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	s, _ := New(opts)
	air := beaconAirBits(t, 38)
	res, err := s.Synthesize(air, 2426)
	if err != nil {
		t.Fatal(err)
	}
	// The data region starting at GFSKStart must track the ideal GFSK
	// waveform closely (it is what PhaseRMSE was computed over).
	g := opts.GFSK
	g.CenterOffset = res.Plan.OffsetHz
	ideal, _ := g.Modulate(air)
	seg := res.Waveform[res.DataStart+res.GFSKStart : res.DataStart+res.GFSKStart+len(ideal)]
	aligned := dsp.PhaseRMSE(ideal, seg)
	shift := 37 // deliberately misaligned by a non-multiple of the bit period
	wrong := dsp.PhaseRMSE(ideal, res.Waveform[res.DataStart+res.GFSKStart+shift:res.DataStart+res.GFSKStart+shift+len(ideal)])
	if aligned >= wrong {
		t.Fatalf("aligned RMSE %.3f not better than misaligned %.3f", aligned, wrong)
	}
}

func TestPSDUOnlyMode(t *testing.T) {
	// PSDUOnly skips waveform prediction; with the exact CP correction
	// disabled (PSDUOnly switches it to the sparse fast path), the PSDU
	// must be identical to the full run's.
	air := beaconAirBits(t, 38)
	mk := func(psduOnly bool) *Result {
		opts := DefaultOptions()
		opts.GFSK = gfsk.BLEConfig()
		opts.CPPrecompensation = false
		opts.PhaseSearch = false // PSDUOnly disables it; match configurations
		opts.PSDUOnly = psduOnly
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Synthesize(air, 2426)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := mk(false)
	fast := mk(true)
	if string(full.PSDU) != string(fast.PSDU) {
		t.Fatal("PSDUOnly changed the synthesized PSDU")
	}
	if fast.Waveform != nil || fast.PhaseRMSE != 0 {
		t.Fatal("PSDUOnly still produced a waveform")
	}
	if full.Waveform == nil || full.PhaseRMSE == 0 {
		t.Fatal("full mode missing waveform metrics")
	}
}

func TestBlendCPDesignConstraints(t *testing.T) {
	// The alternative construction must still satisfy the CP structure.
	g := gfsk.BLEConfig()
	g.CenterOffset = 4e6
	theta, err := g.PhaseSignal(beaconAirBits(t, 38))
	if err != nil {
		t.Fatal(err)
	}
	for len(theta)%symbolLen != 0 {
		theta = append(theta, theta[len(theta)-1])
	}
	hat, err := DesignCPBlend(theta, wifi.ShortGI)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := VerifyCPStructure(hat, wifi.ShortGI)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-12 {
		t.Fatalf("blend CP constraint violated by %g", worst)
	}
	if _, err := DesignCPBlend(make([]float64, 71), wifi.ShortGI); err == nil {
		t.Error("accepted misaligned input")
	}
	if _, err := DesignCPBlend(make([]float64, 72), 1); err == nil {
		t.Error("accepted bad guard")
	}
}

func TestAblationStagesProduceWaveforms(t *testing.T) {
	opts := DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	opts.Preamble = false
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	waves, err := s.Ablation(beaconAirBits(t, 38), 2426)
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) != len(Stages) {
		t.Fatalf("%d stages, want %d", len(waves), len(Stages))
	}
	seen := map[string]bool{}
	for i, w := range waves {
		if w.Stage != Stages[i] {
			t.Fatalf("stage %d is %v, want %v", i, w.Stage, Stages[i])
		}
		name := w.Stage.String()
		if name == "" || name == "Stage(?)" || seen[name] {
			t.Fatalf("bad stage name %q", name)
		}
		seen[name] = true
		if len(w.IQ) == 0 || w.PacketStart <= 0 {
			t.Fatalf("stage %v: empty waveform or bad start", w.Stage)
		}
	}
	if Stage(99).String() != "Stage(?)" {
		t.Fatal("unknown stage name")
	}
	if Quality.String() != "quality" || RealTime.String() != "real-time" {
		t.Fatal("mode names")
	}
}

func TestPredistortIterationsComplete(t *testing.T) {
	// The closed loop does not converge (see EXPERIMENTS.md) but must
	// still produce a chip-consistent PSDU.
	opts := DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	opts.PredistortIterations = 1
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Synthesize(beaconAirBits(t, 38), 2426)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := wifi.NewTransmitter(wifi.TxConfig{
		MCS: 7, ShortGI: true, ScramblerSeed: opts.ScramblerSeed, Windowing: true, Preamble: true,
	})
	chipWave, err := tx.Transmit(res.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	if len(chipWave) != len(res.Waveform) {
		t.Fatal("predistorted result inconsistent with the chip chain")
	}
}

func TestPSDULenForSymbols(t *testing.T) {
	s, _ := New(DefaultOptions()) // quality: NDBPS 260
	l, pad := s.PSDULenForSymbols(28)
	if l != 907 || pad != 2 {
		t.Fatalf("layout (%d,%d), want (907,2)", l, pad)
	}
	rt, _ := New(Options{Mode: RealTime}) // NDBPS 208
	l, pad = rt.PSDULenForSymbols(10)
	// 2080−22 = 2058 → 257 bytes + 2 pad bits.
	if l != 257 || pad != 2 {
		t.Fatalf("real-time layout (%d,%d), want (257,2)", l, pad)
	}
}

// A synthesizer keeps its search scratch (FFT buffers, FIR state, pilot
// cache, rehearsal receiver) across packets, and none of it may leak from
// one packet into the next: synthesizing the same packet twice, around a
// different packet, must reproduce the first result exactly.
func TestSearchStatelessAcrossPackets(t *testing.T) {
	s, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pktA := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: []byte("stateless-a")}
	pktB := &bt.Packet{Type: bt.DM1, LTAddr: 1, SEQN: 1, Payload: []byte("stateless-b")}
	airA, err := pktA.AirBits(dev)
	if err != nil {
		t.Fatal(err)
	}
	airB, err := pktB.AirBits(dev)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Synthesize(airA, 2426)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Synthesize(airB, 2426); err != nil {
		t.Fatal(err)
	}
	again, err := s.Synthesize(airA, 2426)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.PSDU, again.PSDU) {
		t.Error("same packet synthesized twice produced different PSDUs")
	}
	if first.RehearsalMismatches != again.RehearsalMismatches {
		t.Errorf("RehearsalMismatches drifted: %d then %d", first.RehearsalMismatches, again.RehearsalMismatches)
	}
}
