package bluefi_test

// One benchmark per table and figure of the paper's evaluation (§4), plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// runs a shrunken scenario so `go test -bench .` stays tractable;
// cmd/bluefi-eval regenerates the full-size series, and EXPERIMENTS.md
// records paper-vs-measured values.

import (
	"testing"

	"bluefi"
	"bluefi/internal/bt"
	"bluefi/internal/chip"
	"bluefi/internal/core"
	"bluefi/internal/eval"
	"bluefi/internal/gfsk"
)

// --- Fig. 5: RSSI vs distance -------------------------------------------

func benchFig5(b *testing.B, m chip.Model) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := eval.DefaultFig5(m)
		cfg.Reports = 3
		if _, err := eval.Fig5Distance(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5bDistanceAR9331(b *testing.B)    { benchFig5(b, chip.AR9331) }
func BenchmarkFig5cDistanceRTL8811AU(b *testing.B) { benchFig5(b, chip.RTL8811AU) }

// --- Fig. 6: RSSI vs transmit power --------------------------------------

func BenchmarkFig6TxPower(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := eval.DefaultFig6()
		cfg.PacketsPerLevel = 2
		if _, err := eval.Fig6TxPower(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 7: dedicated hardware, throughput, background traffic ----------

func BenchmarkFig7aDedicatedBT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig7aDedicatedBT(4, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7bThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig7bThroughput(120); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7cBackgroundTraffic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig7cBackgroundTraffic(4, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 8: per-impairment ablation --------------------------------------

func BenchmarkFig8Impairments(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := eval.DefaultFig8()
		cfg.PacketsPerStage = 2
		if _, err := eval.Fig8Impairments(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 9 / Fig. 10: PER per channel and audio streaming ----------------

func BenchmarkFig9SingleSlotPER(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := eval.DefaultFig9()
		cfg.PacketsPerChannel = 2
		if _, err := eval.Fig9SingleSlotPER(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10AudioPER(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := eval.DefaultFig10()
		cfg.Packets = 4
		if _, err := eval.Fig10AudioPER(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4.8: packet-generation time -----------------------------------------

func benchSec48(b *testing.B, mode core.Mode, payloadLen int, pt bt.PacketType) {
	opts := core.DefaultOptions()
	opts.Mode = mode
	opts.GFSK = gfsk.BRConfig()
	opts.PSDUOnly = true      // the paper's pipeline emits only the PSDU
	opts.DynamicScale = false // and uses the fixed §2.5 scale factor
	pkt := &bt.Packet{Type: pt, LTAddr: 1, Payload: make([]byte, payloadLen)}
	air, err := pkt.AirBits(bt.Device{LAP: 0x123456, UAP: 0x9A})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Throughput parallelism: each goroutine owns an independent
	// synthesizer, the way Pool shards multi-packet workloads. -cpu 1,4
	// shows the scaling; ns/op at -cpu 1 is the §4.8 latency figure.
	b.RunParallel(func(pb *testing.PB) {
		s, err := core.New(opts)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := s.Synthesize(air, 2426); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// The paper's §4.8 comparison: the Viterbi path versus the real-time
// decoder, for 1-slot and 5-slot packets. The real-time mode must land
// well inside the 1.25 ms slot-pair budget.
func BenchmarkSec48PacketGenerationQuality1Slot(b *testing.B) {
	benchSec48(b, core.Quality, 17, bt.DM1)
}
func BenchmarkSec48PacketGenerationQuality5Slot(b *testing.B) {
	benchSec48(b, core.Quality, 224, bt.DM5)
}
func BenchmarkSec48PacketGenerationRealTime1Slot(b *testing.B) {
	benchSec48(b, core.RealTime, 17, bt.DM1)
}
func BenchmarkSec48PacketGenerationRealTime5Slot(b *testing.B) {
	benchSec48(b, core.RealTime, 224, bt.DM5)
}

// --- public-API headline bench ---------------------------------------------

func BenchmarkSynthesizeBeacon(b *testing.B) {
	syn, err := bluefi.New(bluefi.Options{Chip: bluefi.RTL8811AU})
	if err != nil {
		b.Fatal(err)
	}
	ib := bluefi.IBeacon{Major: 1, Minor: 2, MeasuredPower: -59}
	ad := ib.ADStructures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := syn.Beacon(ad, [6]byte{1, 2, 3, 4, 5, 6}, 38); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesize compares the §4.8 real-time path with telemetry
// disabled and attached — the pairing `make obs-overhead` gates at ≤5%.
// The disabled case costs one nil-check branch per record site; the
// attached case adds the clock reads and atomic updates.
func BenchmarkSynthesize(b *testing.B) {
	for _, bench := range []struct {
		name string
		reg  *bluefi.Telemetry
	}{
		{"telemetry=off", nil},
		{"telemetry=on", bluefi.NewTelemetry()},
	} {
		b.Run(bench.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Mode = core.RealTime
			opts.GFSK = gfsk.BRConfig()
			opts.PSDUOnly = true
			opts.DynamicScale = false
			opts.Telemetry = bench.reg
			s, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			pkt := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: make([]byte, 17)}
			air, err := pkt.AirBits(bt.Device{LAP: 0x123456, UAP: 0x9A})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Synthesize(air, 2426); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPoolBeaconBatch measures the Pool path end to end: a batch of
// distinct beacons fanned over GOMAXPROCS workers; ns/op is per beacon.
func BenchmarkPoolBeaconBatch(b *testing.B) {
	pool, err := bluefi.NewPool(bluefi.Options{Chip: bluefi.RTL8811AU, Mode: bluefi.RealTime}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	const batch = 8
	jobs := make([]bluefi.BeaconJob, batch)
	for i := range jobs {
		ib := bluefi.IBeacon{Major: uint16(i + 1)}
		jobs[i] = bluefi.BeaconJob{ADStructures: ib.ADStructures(), Addr: [6]byte{1, 2, 3, 4, 5, byte(i)}, BLEChannel: 38}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for _, res := range pool.BeaconBatch(jobs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkPhaseSearch isolates the rehearsal-scored search: the full
// PhaseSearch (synth + rehearsal demod per candidate) on a beacon.
func BenchmarkPhaseSearch(b *testing.B) {
	opts := core.DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	s, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	ib := bluefi.IBeacon{Major: 3}
	air := beaconAir(b, ib.ADStructures())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Synthesize(air, 2426); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches for DESIGN.md's design choices -----------------------

func benchAblationOption(b *testing.B, tweak func(*core.Options)) {
	opts := core.DefaultOptions()
	opts.GFSK = gfsk.BLEConfig()
	tweak(&opts)
	s, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	ib := bluefi.IBeacon{Major: 3}
	air := beaconAir(b, ib.ADStructures())
	b.ReportAllocs()
	b.ResetTimer()
	var fidelity float64
	for i := 0; i < b.N; i++ {
		res, err := s.Synthesize(air, 2426)
		if err != nil {
			b.Fatal(err)
		}
		fidelity = res.PhaseRMSE
	}
	b.ReportMetric(fidelity, "rad-inband-RMSE")
}

func beaconAir(tb testing.TB, ad []byte) []byte {
	tb.Helper()
	adv := &bt.Advertisement{PDUType: bt.AdvNonconnInd, AdvA: [6]byte{1, 2, 3, 4, 5, 6}, Data: ad}
	air, err := adv.AirBits(38)
	if err != nil {
		tb.Fatal(err)
	}
	return air
}

// Scale-factor choice (§2.5): fixed A = 1/2 versus the per-symbol dynamic
// search the paper found "negligible benefit, significantly higher
// complexity".
func BenchmarkAblationScaleFixed(b *testing.B) {
	benchAblationOption(b, func(o *core.Options) {})
}

func BenchmarkAblationScaleDynamic(b *testing.B) {
	benchAblationOption(b, func(o *core.Options) { o.DynamicScale = true })
}

// CP construction (§2.4): the paper's piecewise copy versus the phase-
// averaging alternative (worse, as measured — kept as a negative result).
func BenchmarkAblationCPBlend(b *testing.B) {
	benchAblationOption(b, func(o *core.Options) { o.BlendCP = true })
}

// Pre-compensation extensions (beyond the paper): pilot and CP in-band
// corrections on/off.
func BenchmarkAblationNoPrecompensation(b *testing.B) {
	benchAblationOption(b, func(o *core.Options) {
		o.PilotPrecompensation = false
		o.CPPrecompensation = false
	})
}

// Don't-care subcarrier starvation (MinimizeJunk extension).
func BenchmarkAblationMinimizeJunk(b *testing.B) {
	benchAblationOption(b, func(o *core.Options) { o.MinimizeJunk = true })
}
