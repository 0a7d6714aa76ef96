package core

import (
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
)

// TestTelemetryStageConsistency checks the acceptance contract of the
// telemetry layer in the §4.8 configuration (no phase search, fixed
// scale), which runs exactly one synthesis pass per packet: every public
// call — Synthesize or SynthesizePhase — opens exactly one core.synth
// span, each stage is observed once per call under it (GFSK shaping
// only on Synthesize, the one entry point that shapes air bits), and
// the stage sums never exceed the synth sum, because the stages
// partition part of the synth span.
func TestTelemetryStageConsistency(t *testing.T) {
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Mode = RealTime
	opts.GFSK = gfsk.BRConfig()
	opts.DynamicScale = false
	opts.PhaseSearch = false
	opts.Telemetry = reg
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &bt.Packet{Type: bt.DH1, LTAddr: 1, Payload: make([]byte, 27)}
	dev := bt.Device{LAP: 0x9e8b33, UAP: 0x00}
	iterations := 5
	if testing.Short() {
		iterations = 2
	}
	var air []byte
	for i := 0; i < iterations; i++ {
		pkt.Clock = uint32(4 * i)
		air, err = pkt.AirBits(dev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Synthesize(air, 2427); err != nil {
			t.Fatal(err)
		}
	}
	// One SynthesizePhase call: the phase entry point opens its own span.
	theta, err := opts.GFSK.PhaseSignal(air)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SynthesizePhase(theta, 2427); err != nil {
		t.Fatal(err)
	}
	calls := int64(iterations + 1)

	stageSums := map[string]float64{}
	stageCounts := map[string]int64{}
	var synthSum float64
	var synthCount int64
	for _, fam := range reg.Snapshot().Families {
		switch fam.Name {
		case "bluefi_core_stage_seconds":
			for _, m := range fam.Metrics {
				for _, l := range m.Labels {
					if l.Key == "stage" {
						stageSums[l.Value] += m.Sum
						stageCounts[l.Value] += m.Count
					}
				}
			}
		case "bluefi_core_synth_seconds":
			for _, m := range fam.Metrics {
				synthSum += m.Sum
				synthCount += m.Count
			}
		}
	}

	var stageTotal float64
	for _, stage := range []string{"shape", "precomp", "iqgen", "fftqam", "fec", "scramble"} {
		want := calls
		if stage == "shape" {
			want = int64(iterations)
		}
		if n := stageCounts[stage]; n != want {
			t.Errorf("stage %q: %d observations, want %d", stage, n, want)
		}
		stageTotal += stageSums[stage]
	}
	if synthCount != calls {
		t.Errorf("synth_seconds count = %d, want %d", synthCount, calls)
	}
	if stageTotal <= 0 || stageTotal > synthSum {
		t.Errorf("stage sums %.6fs not within the synth sum %.6fs", stageTotal, synthSum)
	}

	// Span taxonomy: the trace ring must hold the full stage hierarchy
	// with the stage spans parented under core.synth.
	parents := map[string]uint64{}
	ids := map[uint64]string{}
	var synthSpans int64
	for _, sp := range reg.RecentSpans() {
		parents[sp.Name] = sp.ParentID
		ids[sp.SpanID] = sp.Name
		if sp.Name == "core.synth" {
			synthSpans++
			if sp.ParentID != 0 {
				t.Errorf("core.synth span has parent %d, want a root span", sp.ParentID)
			}
		}
	}
	if synthSpans != calls {
		t.Errorf("%d core.synth spans recorded, want one per call (%d)", synthSpans, calls)
	}
	for _, stage := range []string{"core.shape", "core.precomp", "core.iqgen", "core.fftqam", "fec.invert", "core.scramble"} {
		pid, ok := parents[stage]
		if !ok {
			t.Errorf("no %s span recorded", stage)
			continue
		}
		if ids[pid] != "core.synth" {
			t.Errorf("%s span parented under %q, want core.synth", stage, ids[pid])
		}
	}
}
