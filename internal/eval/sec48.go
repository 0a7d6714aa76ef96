package eval

import (
	"fmt"
	"time"

	"bluefi/internal/bt"
	"bluefi/internal/core"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
)

// §4.8 — execution time and complexity: the paper's C pipeline generates
// a packet in 46.88 ms with almost all time in the Viterbi FEC decoder;
// the real-time decoder cuts that by ≈50× to under the 1.25 ms slot-pair
// budget. The shape to reproduce: FEC dominates quality mode, and the
// real-time mode is dramatically faster and fits the budget.
//
// Every figure here is read back from the telemetry registry: the total
// is the core.synth span (bluefi_core_synth_seconds), the breakdown the
// stage spans under it (bluefi_core_stage_seconds). There is no second
// timing source.

// Sec48Options returns the §4.8 configuration: the paper's pipeline
// emits only the PSDU (PSDUOnly) at a fixed scale factor (no dynamic
// scale, and PSDUOnly turns the phase search off).
func Sec48Options(mode core.Mode) core.Options {
	opts := core.DefaultOptions()
	opts.Mode = mode
	opts.GFSK = gfsk.BRConfig()
	opts.PSDUOnly = true
	opts.DynamicScale = false
	return opts
}

// sec48Packets are the §4.8 packet shapes: a 1-slot and a 5-slot DM
// packet, each at its maximum payload.
var sec48Packets = []struct {
	name       string
	pt         bt.PacketType
	payloadLen int
}{
	{"1-slot (DM1)", bt.DM1, 17},
	{"5-slot (DM5)", bt.DM5, 224},
}

// Sec48Device is the piconet every §4.8 packet is addressed in.
var Sec48Device = bt.Device{LAP: 0x123456, UAP: 0x9A}

// Sec48FrequencyMHz is the Bluetooth carrier every §4.8 packet uses.
const Sec48FrequencyMHz = 2426

// sec48Stages lists the bluefi_core_stage_seconds label values in
// pipeline order.
var sec48Stages = []string{"shape", "precomp", "iqgen", "fftqam", "fec", "scramble"}

// HistogramTotal is one duration histogram series: its observation
// count and summed duration.
type HistogramTotal struct {
	Name  string // "synth" for the core.synth span, else the stage label
	Count int64
	Sum   time.Duration
}

// TimingResult is one (mode, packet) row of the §4.8 table.
type TimingResult struct {
	Mode   string
	Packet string
	// Synth is bluefi_core_synth_seconds: one observation per packet.
	Synth HistogramTotal
	// Stages holds bluefi_core_stage_seconds in pipeline order.
	Stages []HistogramTotal
}

// perPacket averages a summed duration over the row's packets.
func (r TimingResult) perPacket(sum time.Duration) time.Duration {
	if r.Synth.Count == 0 {
		return 0
	}
	return sum / time.Duration(r.Synth.Count)
}

// Total is the mean measured core.synth span per packet.
func (r TimingResult) Total() time.Duration { return r.perPacket(r.Synth.Sum) }

// Stage is the named stage's mean time per packet.
func (r TimingResult) Stage(name string) time.Duration {
	for _, h := range r.Stages {
		if h.Name == name {
			return r.perPacket(h.Sum)
		}
	}
	return 0
}

// StageSum is the summed time of every stage span, over all packets.
func (r TimingResult) StageSum() time.Duration {
	var sum time.Duration
	for _, h := range r.Stages {
		sum += h.Sum
	}
	return sum
}

// Unspanned is the mean time per packet inside core.synth but in no
// stage span.
func (r TimingResult) Unspanned() time.Duration { return r.perPacket(r.Synth.Sum - r.StageSum()) }

// Sec48Timings synthesizes every §4.8 packet iterations times in both
// modes, each (mode, packet) pair on its own synthesizer and registry,
// and reads the timings back out of the registry.
func Sec48Timings(iterations int) ([]TimingResult, error) {
	var out []TimingResult
	for _, mode := range []core.Mode{core.Quality, core.RealTime} {
		for _, pc := range sec48Packets {
			reg := obs.NewRegistry()
			opts := Sec48Options(mode)
			opts.Telemetry = reg
			s, err := core.New(opts)
			if err != nil {
				return nil, err
			}
			pkt := &bt.Packet{Type: pc.pt, LTAddr: 1, Payload: make([]byte, pc.payloadLen)}
			for i := 0; i < iterations; i++ {
				pkt.Clock = uint32(4 * i)
				air, err := pkt.AirBits(Sec48Device)
				if err != nil {
					return nil, err
				}
				if _, err := s.Synthesize(air, Sec48FrequencyMHz); err != nil {
					return nil, err
				}
			}
			out = append(out, readTimings(reg.Snapshot(), mode.String(), pc.name))
		}
	}
	return out, nil
}

// readTimings collects one registry's synth and stage histograms.
func readTimings(snap obs.Snapshot, mode, packet string) TimingResult {
	series := map[string]HistogramTotal{}
	for _, fam := range snap.Families {
		for _, m := range fam.Metrics {
			h := HistogramTotal{Count: m.Count, Sum: time.Duration(m.Sum * 1e9)}
			switch fam.Name {
			case "bluefi_core_synth_seconds":
				h.Name = "synth"
			case "bluefi_core_stage_seconds":
				for _, l := range m.Labels {
					if l.Key == "stage" {
						h.Name = l.Value
					}
				}
			}
			if h.Name != "" {
				series[h.Name] = h
			}
		}
	}
	res := TimingResult{Mode: mode, Packet: packet, Synth: series["synth"]}
	for _, stage := range sec48Stages {
		if h, ok := series[stage]; ok && h.Count > 0 {
			res.Stages = append(res.Stages, h)
		}
	}
	return res
}

// Speedup returns real-time vs quality mean-total ratio for a packet name.
func Speedup(results []TimingResult, packet string) float64 {
	var q, r time.Duration
	for _, res := range results {
		if res.Packet != packet {
			continue
		}
		if res.Mode == core.Quality.String() {
			q = res.Total()
		} else {
			r = res.Total()
		}
	}
	if r == 0 {
		return 0
	}
	return float64(q) / float64(r)
}

// FormatTimings renders the §4.8 table.
func FormatTimings(results []TimingResult) string {
	out := "§4.8 — packet generation time (PSDU-only, fixed scale; mean core.synth span)\n"
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	for _, r := range results {
		out += fmt.Sprintf("  %-9s %-13s total=%8s (", r.Mode, r.Packet, us(r.Total()))
		for _, stage := range sec48Stages {
			out += fmt.Sprintf("%s=%s ", stage, us(r.Stage(stage)))
		}
		out += fmt.Sprintf("unspanned=%s; n=%d)\n", us(r.Unspanned()), r.Synth.Count)
	}
	out += fmt.Sprintf("  real-time speedup: 1-slot %.0f×, 5-slot %.0f× (budget: 1.25 ms per slot pair)\n",
		Speedup(results, sec48Packets[0].name), Speedup(results, sec48Packets[1].name))
	return out
}
