package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"bluefi/internal/bits"
	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/dsp"
	"bluefi/internal/faults"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
	"bluefi/internal/viterbi"
	"bluefi/internal/wifi"
)

// Mode selects the FEC-inversion strategy (§2.7).
type Mode int

// Modes.
const (
	// Quality uses the weighted Viterbi search over the rate-5/6 code
	// (minimal information loss — the paper's offline/beacon path).
	Quality Mode = iota
	// RealTime uses the O(T) exact-match inverse coder over the rate-2/3
	// code (the paper's audio path, ≈50× faster).
	RealTime
)

func (m Mode) String() string {
	if m == RealTime {
		return "real-time"
	}
	return "quality"
}

// MCS returns the modulation-and-coding scheme each mode transmits at.
func (m Mode) MCS() int {
	if m == RealTime {
		return 5 // 64-QAM rate 2/3
	}
	return 7 // 64-QAM rate 5/6
}

// Options configures a Synthesizer.
type Options struct {
	// Mode selects Quality (default) or RealTime synthesis.
	Mode Mode
	// WiFiChannel is the 2.4 GHz channel the chip transmits on (1–13).
	WiFiChannel int
	// ScramblerSeed must match the chip's (fixed or predicted) seed.
	ScramblerSeed uint8
	// Windowing mirrors COTS-chip per-symbol OFDM windowing (default
	// true via New; setting it false models SDR output).
	Windowing bool
	// Preamble includes the mixed-format preamble in predicted waveforms.
	Preamble bool
	// GFSK carries the Bluetooth modulation parameters; CenterOffset is
	// overwritten by frequency planning.
	GFSK gfsk.Config
	// ScaleFactor is the §2.5 amplitude A applied before the FFT
	// (default 1/2, placing two-tone splits near grid magnitude 32≈7·5).
	ScaleFactor float64
	// DynamicScale searches a small per-symbol scale grid for the lowest
	// in-band quantization residue instead of the fixed factor. The paper
	// found dynamic scaling "negligible benefit, significantly higher
	// complexity" (§2.5) on its hardware receivers; against this
	// repository's simulated discriminator it is decisive (PER 65 % →
	// 8 % combined with PhaseSearch), so DefaultOptions enables it. Set
	// false for the paper's exact configuration (the §4.8 timing
	// experiment does).
	DynamicScale bool
	// LeadSymbols of carrier-only padding precede the Bluetooth packet,
	// keeping the pinned SERVICE-field symbol clear of it (default 2).
	LeadSymbols int
	// GlobalPhase rotates the whole target waveform (radians). Bluetooth
	// receivers are phase-agnostic, but the rotation changes how the
	// signal lands on the quantization lattice and against the fixed-
	// phase pilots — a free parameter worth tuning (ablation benches).
	GlobalPhase float64
	// PhaseSearch synthesizes the packet at the four phase quadrants
	// (identical lattice geometry, different pilot-relative phase) and
	// keeps the one with the lowest in-band phase error — roughly 3×
	// fewer packet errors at 4× synthesis cost in measurements. Enabled
	// by DefaultOptions; disabled automatically with PSDUOnly (no
	// waveform to score). An extension beyond the paper.
	PhaseSearch bool
	// BlendCP selects the phase-averaging CP construction (DesignCPBlend)
	// instead of the paper's piecewise copy (an ablation option).
	BlendCP bool
	// MinimizeJunk forces don't-care subcarriers (outside the Bluetooth
	// band and its guard) to minimum-energy constellation points instead
	// of their quantized FFT values. Those bins only reconstruct the
	// high-frequency CP-glitch content a Bluetooth receiver filters away,
	// while their symbol-to-symbol variation splatters into the Bluetooth
	// band at OFDM boundaries — so starving them lowers in-band
	// self-interference at no cost (an extension beyond the paper,
	// ablated in the benches).
	MinimizeJunk bool
	// PredistortIterations runs closed-loop pre-distortion: after each
	// synthesis pass the predicted chip waveform's in-band phase error is
	// measured through a nominal receiver filter and subtracted from the
	// target phase before the next pass. Measurements show it chases the
	// quantization noise (which re-rolls each pass) without converging, so
	// it is off by default (0 or −1); it remains available for the
	// ablation benches. This is the global-optimization direction the
	// paper leaves open (§2.2, A.3).
	PredistortIterations int
	// PilotPrecompensation subtracts the pilot tones' predicted in-band
	// phase perturbation from the target phase before synthesis. Unlike
	// full pre-distortion this correction is deterministic — the pilot
	// waveform is fixed by the standard and independent of the data — so
	// it cancels cleanly. Enabled by DefaultOptions; an extension beyond
	// the paper, ablated in the benches.
	PilotPrecompensation bool
	// PSDUOnly skips predicted-waveform generation: Result.Waveform is
	// nil and PhaseRMSE is zero. The paper's pipeline emits only the
	// PSDU; this option makes the §4.8 timing comparison apples-to-apples
	// and is what a driver integration wants on the hot path.
	PSDUOnly bool
	// Telemetry, when non-nil, receives per-stage latency histograms,
	// synthesis spans and rehearsal counters (see internal/obs). The
	// instrumentation records timing and counts only — it never feeds the
	// synthesized bits — and a nil registry costs one branch per record.
	Telemetry *obs.Registry
	// Faults, when non-nil, is consulted once per Synthesize call and
	// may fail it with an injected error — the chaos-test hook for
	// synthesis failure. Like Telemetry it never feeds the synthesized
	// bits: with a nil (or non-firing) injector the output is
	// bit-identical to an uninstrumented run.
	Faults *faults.Injector
	// CPPrecompensation likewise subtracts the CP-design construction's
	// own in-band phase error (θ̂ vs θ through the nominal channel
	// filter) from the target. The CP corruption is structural and fully
	// known before any quantization, so this correction also cancels
	// cleanly to first order. Enabled by DefaultOptions; an extension
	// beyond the paper, ablated in the benches.
	CPPrecompensation bool
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: quality mode on WiFi channel 3 with SGI, windowing on.
func DefaultOptions() Options {
	return Options{
		Mode:          Quality,
		WiFiChannel:   3,
		ScramblerSeed: 71, // RTL8811AU's constant; AR9331 pinned to 1
		Windowing:     true,
		Preamble:      true,
		GFSK:          gfsk.BRConfig(),
		ScaleFactor:   0.5,
		DynamicScale:  true,
		LeadSymbols:   2,

		PilotPrecompensation: true,
		CPPrecompensation:    true,
		PhaseSearch:          true,
	}
}

// Timings breaks down where synthesis time goes (§4.8).
type Timings struct {
	IQGen    time.Duration // GFSK phase construction + CP design
	FFTQAM   time.Duration // per-symbol FFT and constellation fitting
	FEC      time.Duration // Viterbi or real-time inversion
	Scramble time.Duration // descrambling and PSDU packing
}

// Total sums the per-stage timings.
func (t Timings) Total() time.Duration { return t.IQGen + t.FFTQAM + t.FEC + t.Scramble }

// add accumulates another pass's stage timings. The PhaseSearch uses it
// so a searched Result reports the time of every candidate it evaluated,
// keeping Timings consistent with the per-candidate stage histograms.
func (t *Timings) add(o Timings) {
	t.IQGen += o.IQGen
	t.FFTQAM += o.FFTQAM
	t.FEC += o.FEC
	t.Scramble += o.Scramble
}

// Result is the outcome of synthesizing one Bluetooth packet.
type Result struct {
	// PSDU is the byte string to hand to the WiFi chip.
	PSDU []byte
	// Plan records the frequency planning decision.
	Plan ChannelPlan
	// Symbols is the OFDM data symbol count.
	Symbols int
	// CodedBits, Flips and ImportantFlips quantify FEC-inversion quality:
	// how many coded bits changed when re-encoding the decoded input, and
	// how many of those carried WeightImportant. PacketImportantFlips
	// restricts the count to OFDM symbols overlapping the Bluetooth
	// packet — flips in the carrier-only lead/tail symbols (where the
	// pinned SERVICE field lives) are harmless by design.
	CodedBits, Flips, ImportantFlips, PacketImportantFlips int
	// PhaseRMSE measures the predicted waveform's phase error against the
	// ideal GFSK waveform over the packet span, through a nominal 600 kHz
	// Bluetooth channel filter (radians): the fidelity a Bluetooth
	// receiver actually experiences.
	PhaseRMSE float64
	// Waveform is the predicted chip output (what hardware will emit for
	// PSDU under the same configuration), including the preamble when
	// configured.
	Waveform []complex128
	// targetPhase keeps the offset-mixed target for rehearsal scoring.
	targetPhase []float64
	// DataStart is the offset of the first data symbol in Waveform;
	// GFSKStart is the offset of the Bluetooth packet's first air bit
	// within the data region.
	DataStart, GFSKStart int
	// RehearsalMismatches counts bit decisions the synthesis-time
	// reception rehearsal got wrong at the best search candidate (−1 when
	// no rehearsal ran). A nonzero value predicts the packet will fail on
	// a clean link — callers with scheduling freedom (the audio path) can
	// re-slot instead of transmitting a known-bad frame.
	RehearsalMismatches int
	// Timings records the per-stage execution time. With PhaseSearch it
	// covers every candidate the search evaluated — where the packet's
	// synthesis time actually went — matching the per-candidate
	// bluefi_core_stage_seconds histograms by construction.
	Timings Timings
}

// Synthesizer converts Bluetooth air bits into WiFi PSDUs.
//
// A Synthesizer is not safe for concurrent use and starts no goroutines:
// the PhaseSearch evaluates its candidates one after another. For
// concurrent multi-packet workloads, use one Synthesizer per goroutine
// (the root package's Pool does exactly that).
type Synthesizer struct {
	opts         Options
	mcs          wifi.MCS
	il           *wifi.Interleaver
	mapper       *wifi.Mapper
	plan         *dsp.FFTPlan
	tx           *wifi.Transmitter
	mod          *wifi.OFDMModulator
	predistFIR   *dsp.FIR
	lastOffsetHz float64
	extraPhase   float64
	extraLead    int
	rehearseRx   *btrx.Receiver

	// fitSymbols scratch: the time/frequency buffers, the two
	// interleaved-bit candidate buffers of the per-symbol scale search,
	// and the per-subcarrier band masks of the last offset.
	fitBody, fitX        []complex128
	fitInter             [2][]byte
	fitStarve, fitInband []bool

	// pilotIBCache memoizes the in-band pilot waveform per (nsym,
	// offset): it is data-independent, so audio streams reuse it.
	pilotIBCache map[pilotKey][]complex128

	// weightsCache memoizes CodedBitWeights per (nsym, offset) — also
	// data-independent, and rebuilt twice per packet otherwise. Entries
	// are shared read-only with the Viterbi inverters.
	weightsCache map[pilotKey][]float64

	// Telemetry: met/vmet are nil when Options.Telemetry is nil (every
	// observe method then no-ops); obsCtx is the span root carrying the
	// registry, precomputed so the hot path allocates no context when
	// telemetry is disabled.
	met    *coreMetrics
	vmet   *viterbi.Metrics
	obsCtx context.Context
}

type pilotKey struct {
	nsym   int
	offset float64
}

// New validates options (zero values get defaults) and builds the
// synthesizer.
func New(opts Options) (*Synthesizer, error) {
	if opts.WiFiChannel == 0 {
		opts.WiFiChannel = 3
	}
	if _, err := wifi.Channel2GHzCenter(opts.WiFiChannel); err != nil {
		return nil, err
	}
	if opts.ScaleFactor == 0 {
		opts.ScaleFactor = 0.5
	}
	if opts.ScaleFactor < 0.05 || opts.ScaleFactor > 1 {
		return nil, fmt.Errorf("core: scale factor %g out of range", opts.ScaleFactor)
	}
	if opts.LeadSymbols == 0 {
		opts.LeadSymbols = 2
	}
	if opts.LeadSymbols < 1 || opts.LeadSymbols > 16 {
		return nil, fmt.Errorf("core: lead of %d symbols out of range", opts.LeadSymbols)
	}
	if opts.GFSK.SampleRate == 0 {
		opts.GFSK = gfsk.BRConfig()
	}
	if opts.GFSK.SampleRate != wifi.SampleRate {
		return nil, fmt.Errorf("core: GFSK sample rate %g must match WiFi's %g", opts.GFSK.SampleRate, wifi.SampleRate)
	}
	mcs, err := wifi.LookupMCS(opts.Mode.MCS())
	if err != nil {
		return nil, err
	}
	il, err := wifi.NewInterleaver(mcs.NCBPS, mcs.Modulation.BitsPerSymbol(), wifi.HTColumns)
	if err != nil {
		return nil, err
	}
	plan, err := dsp.PlanFor(wifi.FFTSize)
	if err != nil {
		return nil, err
	}
	tx, err := wifi.NewTransmitter(wifi.TxConfig{
		MCS:           opts.Mode.MCS(),
		ShortGI:       true,
		ScramblerSeed: opts.ScramblerSeed,
		Windowing:     opts.Windowing,
		Preamble:      opts.Preamble,
	})
	if err != nil {
		return nil, err
	}
	mod, err := wifi.NewOFDMModulator(wifi.ShortGI, opts.Windowing)
	if err != nil {
		return nil, err
	}
	s := &Synthesizer{opts: opts, mcs: mcs, il: il, mapper: wifi.NewMapper(mcs.Modulation), plan: plan, tx: tx, mod: mod}
	s.fitBody = make([]complex128, wifi.FFTSize)
	s.fitX = make([]complex128, wifi.FFTSize)
	s.fitInter[0] = make([]byte, 0, mcs.NCBPS)
	s.fitInter[1] = make([]byte, 0, mcs.NCBPS)
	s.fitStarve = make([]bool, len(wifi.HTDataSubcarriers))
	s.fitInband = make([]bool, len(wifi.HTDataSubcarriers))
	s.met = newCoreMetrics(opts.Telemetry, opts.Mode)
	s.vmet = viterbi.NewMetrics(opts.Telemetry)
	s.obsCtx = obs.WithRegistry(context.Background(), opts.Telemetry)
	return s, nil
}

// Options returns the synthesizer's (defaulted) configuration.
func (s *Synthesizer) Options() Options { return s.opts }

// symbolLen is the SGI OFDM symbol span in samples.
const symbolLen = wifi.ShortGI + wifi.FFTSize

// GridScale relates FFT units of the A-scaled target waveform to
// constellation grid units (§2.5): with A = 1/2 a tone splitting across
// two subcarriers peaks near 32 FFT units, "close to 35 (= 7·5)" — i.e.
// one constellation step spans 5 FFT units, so the 64-QAM axis range ±7
// covers ±35 and the strongest bins are never clamped. The chip's
// absolute output scale is arbitrary (GFSK receivers ignore amplitude),
// so only this ratio matters.
const GridScale = 5.0

// buildTargetPhase lays the GFSK phase signal into a whole number of OFDM
// symbols, extending the carrier-only slope before and after the packet.
func (s *Synthesizer) buildTargetPhase(airBits []byte, offsetHz float64) (theta []float64, lead, nsym int, err error) {
	g := s.opts.GFSK
	g.CenterOffset = 0
	pkt, err := g.PhaseSignal(airBits)
	if err != nil {
		return nil, 0, 0, err
	}
	theta, lead, nsym = s.layoutPhase(pkt, offsetHz)
	return theta, lead, nsym, nil
}

// layoutPhase mixes a baseband packet phase up to the planned offset and
// lays it into a whole number of OFDM symbols, extending the carrier-only
// slope before and after the packet. The mixing happens here — before CP
// design — because offset mixing and CP insertion do not commute (§2.3).
func (s *Synthesizer) layoutPhase(pkt []float64, offsetHz float64) (theta []float64, lead, nsym int) {
	lead = (s.opts.LeadSymbols + s.extraLead) * symbolLen
	total := lead + len(pkt) + symbolLen // one tail symbol of slack
	nsym = (total + symbolLen - 1) / symbolLen
	theta = make([]float64, nsym*symbolLen)
	slope := 2 * math.Pi * offsetHz / wifi.SampleRate
	for n := range theta {
		switch {
		case n < lead:
			theta[n] = pkt[0]
		case n < lead+len(pkt):
			theta[n] = pkt[n-lead]
		default:
			theta[n] = pkt[len(pkt)-1]
		}
		// Carrier offset: a linear phase ramp over the whole frame, plus
		// the free global rotation.
		theta[n] += slope*float64(n) + s.opts.GlobalPhase + s.extraPhase
	}
	return theta, lead, nsym
}

// fitSymbols converts the CP-designed phase signal into quantized
// frequency-domain data points and the coded-bit targets they demap to.
// offsetHz locates the Bluetooth band for the MinimizeJunk option.
func (s *Synthesizer) fitSymbols(thetaHat []float64, nsym int, offsetHz float64) (coded []byte, err error) {
	nbpsc := s.mcs.Modulation.BitsPerSymbol()
	coded = make([]byte, 0, nsym*s.mcs.NCBPS)
	body, X := s.fitBody, s.fitX
	single := [1]float64{s.opts.ScaleFactor}
	scales := single[:]
	if s.opts.DynamicScale {
		scales = dynamicScales
	}
	starve, inband := s.fitStarve, s.fitInband
	for i, sub := range wifi.HTDataSubcarriers {
		w := SubcarrierWeight(sub, offsetHz)
		inband[i] = w >= WeightAdjacent
		starve[i] = s.opts.MinimizeJunk && w < WeightAdjacent
	}
	// Two candidate buffers serve the whole scale search: `cur` collects
	// the candidate being built; on improvement it becomes `bestInter` and
	// the other buffer takes over — no per-scale allocation.
	curIdx := 0
	for k := 0; k < nsym; k++ {
		base := k*symbolLen + wifi.ShortGI
		bestResidue := math.Inf(1)
		var bestInter []byte
		for _, A := range scales {
			for n := 0; n < wifi.FFTSize; n++ {
				sin, cos := math.Sincos(thetaHat[base+n])
				body[n] = complex(A*cos, A*sin)
			}
			s.plan.ForwardInto(X, body)
			inter := s.fitInter[curIdx][:0]
			residue := 0.0
			for i, sub := range wifi.HTDataSubcarriers {
				v := X[dsp.SubcarrierBin(sub, wifi.FFTSize)] / GridScale
				var q complex128
				if starve[i] {
					q = complex(sign(real(v)), sign(imag(v))) // minimum-energy point
				} else {
					q = s.mapper.Quantize(v)
				}
				if inband[i] {
					// Only the Bluetooth-band fit matters: out-of-band
					// residue is filtered at the receiver, and the scale
					// search should not chase it.
					d := v - q
					residue += real(d)*real(d) + imag(d)*imag(d)
				}
				inter = inter[:len(inter)+nbpsc]
				if !s.mapper.DemapInto(inter[len(inter)-nbpsc:], q) {
					return nil, fmt.Errorf("core: %v demap: point (%g,%g) off grid", s.mcs.Modulation, real(q), imag(q))
				}
			}
			s.fitInter[curIdx] = inter[:0]
			if residue /= A * A; residue < bestResidue {
				bestResidue = residue
				bestInter = inter
				curIdx ^= 1 // keep the winner; build the next try elsewhere
			}
		}
		if len(bestInter) != s.mcs.NCBPS {
			return nil, fmt.Errorf("core: symbol %d produced %d bits, want %d (nbpsc %d)", k, len(bestInter), s.mcs.NCBPS, nbpsc)
		}
		coded = coded[:len(coded)+s.mcs.NCBPS]
		s.il.DeinterleaveInto(coded[len(coded)-s.mcs.NCBPS:], bestInter)
	}
	return coded, nil
}

// dynamicScales is the DynamicScale candidate grid of §2.5.
var dynamicScales = []float64{0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65}

// codedBitWeights returns the memoized CodedBitWeights for this
// synthesizer's interleaver and modulation. The result is shared across
// calls and must be treated as read-only.
func (s *Synthesizer) codedBitWeights(offsetHz float64, nsym int) []float64 {
	key := pilotKey{nsym: nsym, offset: offsetHz}
	if w, ok := s.weightsCache[key]; ok {
		return w
	}
	if s.weightsCache == nil {
		s.weightsCache = make(map[pilotKey][]float64)
	}
	w := CodedBitWeights(s.il, s.mcs.Modulation, offsetHz, nsym)
	s.weightsCache[key] = w
	return w
}

// frameLayout computes the PSDU length and pad for a symbol count: the
// data field is SERVICE(16) + PSDU + tail(6) + pad, all pinned except the
// PSDU (§2.8 — SERVICE and pad are fixed by the scrambler seed, the tail
// is zeroed by the chip after scrambling).
func (s *Synthesizer) frameLayout(nsym int) (psduLen, pad int) {
	total := nsym * s.mcs.NDBPS
	psduLen = (total - wifi.ServiceBits - wifi.TailBits) / 8
	pad = total - wifi.ServiceBits - wifi.TailBits - 8*psduLen
	return psduLen, pad
}

// invert runs the configured FEC inversion over the coded targets and
// returns the scrambled-domain data bits.
func (s *Synthesizer) invert(coded []byte, weights []float64, nsym int) ([]byte, error) {
	total := nsym * s.mcs.NDBPS
	_, pad := s.frameLayout(nsym)
	seq := wifi.NewScrambler(s.opts.ScramblerSeed).Sequence(total)
	prefix := seq[:wifi.ServiceBits]
	suffix := make([]byte, wifi.TailBits+pad)
	copy(suffix[wifi.TailBits:], seq[total-pad:]) // pad pinned to scrambler stream; tail zero

	if s.opts.Mode == RealTime {
		res, err := viterbi.RealTimeInvertWeighted(coded,
			viterbi.RTWeights{W: weights, ImportantMin: WeightImportant, Obs: s.vmet}, prefix, suffix)
		if err != nil {
			return nil, err
		}
		return res.Info, nil
	}

	mother, erased, err := wifi.Depuncture(coded, s.mcs.Rate, total)
	if err != nil {
		return nil, err
	}
	mw, err := MotherWeights(weights, s.mcs.Rate, total)
	if err != nil {
		return nil, err
	}
	for i := range mw {
		if erased[i] {
			mw[i] = 0
		}
	}
	return viterbi.Decode(viterbi.Input{Bits: mother, Weight: mw, PinnedPrefix: prefix, PinnedSuffix: suffix, Obs: s.vmet})
}

// synthPass holds one open-loop synthesis result.
type synthPass struct {
	data     []byte         // scrambled-domain data bits
	coded    []byte         // coded-bit targets
	symbols  [][]complex128 // frequency-domain data symbols
	dataWave []complex128   // modulated data field (no preamble)
	flips    int
	impFlips int
	timings  Timings
}

// synthOnce runs the open-loop pipeline of §2.3–2.8 for a target phase.
// The three pipeline stages are timed through obs spans — the measured
// durations fill synthPass.timings (and so Result.Timings) whether or
// not a registry is attached; with one, the same durations land in the
// bluefi_core_stage_seconds histograms, keeping the two views in exact
// agreement.
func (s *Synthesizer) synthOnce(ctx context.Context, target []float64, nsym int, offsetHz float64) (*synthPass, error) {
	_, spIQ := obs.StartSpan(ctx, "core.iqgen")
	design := DesignCP
	if s.opts.BlendCP {
		design = DesignCPBlend
	}
	thetaHat, err := design(target, wifi.ShortGI)
	dIQGen := spIQ.End()
	if err != nil {
		return nil, err
	}
	_, spFFT := obs.StartSpan(ctx, "core.fftqam")
	coded, err := s.fitSymbols(thetaHat, nsym, offsetHz)
	dFFTQAM := spFFT.End()
	if err != nil {
		return nil, err
	}
	_, spFEC := obs.StartSpan(ctx, "fec.invert", obs.L("mode", s.opts.Mode.String()))
	weights := s.codedBitWeights(offsetHz, nsym)
	data, err := s.invert(coded, weights, nsym)
	dFEC := spFEC.End()
	if err != nil {
		return nil, err
	}
	s.met.observePass(dIQGen, dFFTQAM, dFEC)

	reCoded := wifi.EncodeRate(data, s.mcs.Rate)
	p := &synthPass{data: data, coded: coded}
	for i := range coded {
		if reCoded[i] != coded[i] {
			p.flips++
			if weights[i] >= WeightImportant {
				p.impFlips++
			}
		}
	}
	if !s.opts.PSDUOnly {
		p.symbols, err = s.tx.SymbolsFromScrambledBits(data)
		if err != nil {
			return nil, err
		}
		p.dataWave, err = s.mod.Modulate(p.symbols)
		if err != nil {
			return nil, err
		}
	}
	p.timings = Timings{IQGen: dIQGen, FFTQAM: dFFTQAM, FEC: dFEC}
	return p, nil
}

// predistort measures the in-band phase error of the predicted data
// waveform against the original target phase theta through a nominal
// Bluetooth channel filter, and subtracts it (damped) from the working
// target.
func (s *Synthesizer) predistort(theta, working []float64, dataWave []complex128) ([]float64, error) {
	if s.predistFIR == nil {
		fir, err := dsp.LowpassFIR(600e3, wifi.SampleRate, 101)
		if err != nil {
			return nil, err
		}
		s.predistFIR = fir
	}
	n := len(theta)
	pred := make([]complex128, n)
	copy(pred, dataWave[:min(n, len(dataWave))])
	ideal := dsp.PhaseToIQ(theta, 1)
	// Mix both to the Bluetooth channel and filter.
	off := s.lastOffsetHz
	dsp.Mix(pred, -off, wifi.SampleRate, 0)
	dsp.Mix(ideal, -off, wifi.SampleRate, 0)
	predIB := s.predistFIR.Apply(pred)
	idealIB := s.predistFIR.Apply(ideal)
	// Constant rotation between the two (modulation start phase etc.).
	var rot complex128
	for i := range predIB {
		if predIB[i] == 0 || idealIB[i] == 0 {
			continue
		}
		d := cmplxPhase(predIB[i]) - cmplxPhase(idealIB[i])
		rot += complex(math.Cos(d), math.Sin(d))
	}
	offset := cmplxPhase(rot)
	out := make([]float64, n)
	const beta = 0.9  // damping
	const clip = 0.75 // ignore wild regions (deep amplitude nulls)
	for i := range out {
		dphi := 0.0
		if predIB[i] != 0 && idealIB[i] != 0 {
			dphi = dsp.WrapAngle(cmplxPhase(predIB[i]) - cmplxPhase(idealIB[i]) - offset)
		}
		if dphi > clip {
			dphi = clip
		} else if dphi < -clip {
			dphi = -clip
		}
		out[i] = working[i] - beta*dphi
	}
	return out, nil
}

func cmplxPhase(v complex128) float64 { return math.Atan2(imag(v), real(v)) }

// precompensatePilots subtracts the pilots' predicted in-band phase
// perturbation from the target phase. The pilot waveform is fixed by the
// standard (tones at ±7, ±21 with the known polarity sequence), so its
// interference with the Bluetooth signal through any reasonable channel
// filter is deterministic: for a small additive interferer p on a
// unit-modulus signal s = a·e^{jθ}, the received phase error is
// Im(p·e^{−jθ})/a. Pre-rotating the target by its negative cancels the
// perturbation at the receiver.
func (s *Synthesizer) precompensatePilots(theta, working []float64, nsym int, offsetHz float64) ([]float64, error) {
	if s.predistFIR == nil {
		fir, err := dsp.LowpassFIR(600e3, wifi.SampleRate, 101)
		if err != nil {
			return nil, err
		}
		s.predistFIR = fir
	}
	if s.pilotIBCache == nil {
		s.pilotIBCache = make(map[pilotKey][]complex128)
	}
	if pIB, ok := s.pilotIBCache[pilotKey{nsym, offsetHz}]; ok {
		return s.applyPilotCorrection(theta, working, pIB), nil
	}
	// Pilot-only symbols in grid units, modulated like the data field.
	pilotAmp := wifi.PilotAmplitude(s.mcs.Modulation)
	symbols := make([][]complex128, nsym)
	empty := make([]complex128, len(wifi.HTDataSubcarriers))
	for k := 0; k < nsym; k++ {
		sym, err := wifi.BuildSymbol(empty, wifi.DataPolarityBase+k, pilotAmp)
		if err != nil {
			return nil, err
		}
		symbols[k] = sym
	}
	pWave, err := s.mod.Modulate(symbols)
	if err != nil {
		return nil, err
	}
	// In-band pilot component at the Bluetooth channel.
	p := make([]complex128, len(theta))
	copy(p, pWave[:len(theta)])
	dsp.Mix(p, -offsetHz, wifi.SampleRate, 0)
	pIB := s.predistFIR.Apply(p)
	dsp.Mix(pIB, +offsetHz, wifi.SampleRate, 0)
	s.pilotIBCache[pilotKey{nsym, offsetHz}] = pIB
	return s.applyPilotCorrection(theta, working, pIB), nil
}

// applyPilotCorrection subtracts the pilots' first-order phase
// perturbation from the working target.
func (s *Synthesizer) applyPilotCorrection(theta, working []float64, pIB []complex128) []float64 {
	// Transmitted in-band signal amplitude in the same grid units.
	a := s.opts.ScaleFactor / GridScale
	out := make([]float64, len(theta))
	for n := range out {
		sin, cos := math.Sincos(theta[n])
		dphi := (imag(pIB[n])*cos - real(pIB[n])*sin) / a
		// The small-interferer approximation breaks if |p| approaches a.
		if dphi > 0.5 {
			dphi = 0.5
		} else if dphi < -0.5 {
			dphi = -0.5
		}
		out[n] = working[n] - dphi
	}
	return out
}

// precompensateCP subtracts the CP construction's own in-band phase error
// from the working target: Δφ[n] is the phase difference between the
// CP-designed waveform and the true waveform after the nominal channel
// filter. It is structural — no quantization involved — so subtracting it
// pre-cancels most of the in-band residue the paper's §2.4 design leaves.
func (s *Synthesizer) precompensateCP(theta, working []float64, offsetHz float64) ([]float64, error) {
	if s.predistFIR == nil {
		fir, err := dsp.LowpassFIR(600e3, wifi.SampleRate, 101)
		if err != nil {
			return nil, err
		}
		s.predistFIR = fir
	}
	thetaHat, err := DesignCP(theta, wifi.ShortGI)
	if err != nil {
		return nil, err
	}
	if !s.opts.PSDUOnly {
		// The exact correction filters both waveforms and takes the
		// in-band phase difference; the sparse first-order version below
		// is reserved for the PSDU-only hot path.
		return s.precompensateCPExact(theta, working, thetaHat, offsetHz)
	}
	// The difference e^{jθ̂}−e^{jθ} is nonzero only at the ≈9 corrupted
	// samples per 72-sample symbol, so its in-band component comes from a
	// sparse convolution with the channel-filter taps — an order of
	// magnitude cheaper than filtering both full waveforms. To first
	// order the received phase error is Im(d_ib·e^{−jθ}) (the filtered
	// ideal signal has ≈unit amplitude and phase θ in-band).
	n := len(theta)
	dIB := make([]complex128, n)
	taps := s.predistFIR.Taps
	delay := s.predistFIR.GroupDelay()
	mixStep := -2 * math.Pi * offsetHz / wifi.SampleRate
	for i := 0; i < n; i++ {
		if dsp.WrapAngle(thetaHat[i]-theta[i]) == 0 {
			continue
		}
		sinH, cosH := math.Sincos(thetaHat[i])
		sinT, cosT := math.Sincos(theta[i])
		d := complex(cosH-cosT, sinH-sinT)
		// Mix to baseband before filtering (phase reference at index 0).
		sm, cm := math.Sincos(mixStep * float64(i))
		d *= complex(cm, sm)
		// Scatter through the filter: output j receives taps[k]·d at
		// j = i − k + delay (delay-compensated convolution).
		for k, t := range taps {
			j := i - k + delay
			if j < 0 || j >= n {
				continue
			}
			dIB[j] += complex(t, 0) * d
		}
	}
	out := make([]float64, n)
	const beta = 0.6 // damped: the CP construction re-applies to the warped target
	const clip = 0.2 // glitch regions exceed the first-order model
	for i := range out {
		// Mix back up and project onto the phase direction.
		sm, cm := math.Sincos(-mixStep * float64(i))
		d := dIB[i] * complex(cm, sm)
		sinT, cosT := math.Sincos(theta[i])
		dphi := imag(d)*cosT - real(d)*sinT
		if dphi > clip {
			dphi = clip
		} else if dphi < -clip {
			dphi = -clip
		}
		out[i] = working[i] - beta*dphi
	}
	return out, nil
}

// precompensateCPExact is the quality-mode correction: in-band phase
// difference between the CP-designed and ideal waveforms through the
// nominal channel filter.
func (s *Synthesizer) precompensateCPExact(theta, working, thetaHat []float64, offsetHz float64) ([]float64, error) {
	a := dsp.GetComplex(len(theta))
	b := dsp.GetComplex(len(thetaHat))
	aIB := dsp.GetComplex(len(theta))
	bIB := dsp.GetComplex(len(thetaHat))
	defer func() {
		dsp.PutComplex(a)
		dsp.PutComplex(b)
		dsp.PutComplex(aIB)
		dsp.PutComplex(bIB)
	}()
	dsp.PhaseToIQInto(a, theta, 1)
	dsp.PhaseToIQInto(b, thetaHat, 1)
	dsp.Mix(a, -offsetHz, wifi.SampleRate, 0)
	dsp.Mix(b, -offsetHz, wifi.SampleRate, 0)
	s.predistFIR.ApplyInto(aIB, a)
	s.predistFIR.ApplyInto(bIB, b)
	out := make([]float64, len(theta))
	const beta = 0.6
	const clip = 0.2
	for n := range out {
		var dphi float64
		if aIB[n] != 0 && bIB[n] != 0 {
			dphi = dsp.WrapAngle(cmplxPhase(bIB[n]) - cmplxPhase(aIB[n]))
		}
		if dphi > clip {
			dphi = clip
		} else if dphi < -clip {
			dphi = -clip
		}
		out[n] = working[n] - beta*dphi
	}
	return out, nil
}

// Synthesize converts Bluetooth air bits at carrier frequency btMHz into
// a WiFi PSDU, choosing the best covering WiFi channel unless the options
// pin one (then the pinned channel must cover btMHz).
func (s *Synthesizer) Synthesize(airBits []byte, btMHz float64) (*Result, error) {
	if len(airBits) == 0 {
		return nil, fmt.Errorf("core: no air bits")
	}
	if err := s.opts.Faults.SynthesisError(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	g := s.opts.GFSK
	g.CenterOffset = 0 // baseband; the offset is mixed in below
	pkt, err := g.PhaseSignal(airBits)
	if err != nil {
		return nil, err
	}
	return s.SynthesizePhase(pkt, btMHz)
}

// SynthesizePhase converts an arbitrary baseband Bluetooth phase
// trajectory (radians at 20 Msps, carrier at 0 Hz) into a WiFi PSDU —
// the entry point for modulations beyond plain GFSK, such as the EDR
// DPSK payloads of §5.3. The trajectory should include the transmit
// pads; PhaseRMSE and GFSKStart treat the whole trajectory as the packet.
func (s *Synthesizer) SynthesizePhase(basebandPhase []float64, btMHz float64) (*Result, error) {
	if len(basebandPhase) == 0 {
		return nil, fmt.Errorf("core: empty phase trajectory")
	}
	ctx, sp := obs.StartSpan(s.obsCtx, "core.synth", obs.L("mode", s.opts.Mode.String()))
	res, err := s.synthesizePhase(ctx, basebandPhase, btMHz)
	d := sp.End()
	if err == nil {
		s.met.observeSynth(d, res.RehearsalMismatches)
	}
	return res, err
}

// The candidate grid of the rehearsal search: four phase quadrants per
// extra-lead group, further groups only when the previous ones still
// rehearse dirty (see synthesizePhase).
var (
	searchRotations = []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}
	searchLeads     = []int{0, 1, 2}
)

// searchCleanMargin is the decision-margin threshold above which a
// zero-mismatch candidate ends the search immediately.
const searchCleanMargin = 0.2

// synthesizePhase is SynthesizePhase behind the telemetry span; ctx
// carries the registry and the enclosing span for stage spans.
func (s *Synthesizer) synthesizePhase(ctx context.Context, basebandPhase []float64, btMHz float64) (*Result, error) {
	if !s.opts.PhaseSearch || s.opts.PSDUOnly {
		res, err := s.synthesizeShifted(ctx, basebandPhase, btMHz, 0, 0)
		if err == nil {
			res.RehearsalMismatches = -1
		}
		return res, err
	}
	// Phase search: the square constellation is invariant under π/2
	// rotations, but the pilots' fixed phase is not — the four quadrants
	// put the deterministic pilot interference in different relative
	// positions. Score each candidate by REHEARSING reception: demodulate
	// the predicted waveform with a nominal receiver chain and compare
	// per-bit decisions against the ideal waveform's (cf. the Recitation
	// idea the paper cites [39]); RMS phase error does not localize the
	// damage to weak bits, rehearsal does.
	// A second free axis: extra lead padding shifts how bit boundaries
	// align with the OFDM symbol corruption pattern (the alignment cycles
	// every lcm(20, 72) samples). Extra leads are only tried when the
	// plain rotations still rehearse dirty.
	var best *Result
	var searched Timings // all candidates' stage time, reported on the winner
	bestMis, bestMargin := int(^uint(0)>>1), math.Inf(-1)
	for _, extraLead := range searchLeads {
		for _, rot := range searchRotations {
			res, err := s.synthesizeShifted(ctx, basebandPhase, btMHz, rot, extraLead)
			if err != nil {
				return nil, err
			}
			searched.add(res.Timings)
			mis, margin := s.rehearse(res, len(basebandPhase))
			res.RehearsalMismatches = mis
			if best == nil || mis < bestMis || (mis == bestMis && margin > bestMargin) {
				best, bestMis, bestMargin = res, mis, margin
			}
			if mis == 0 && margin > searchCleanMargin {
				best.Timings = searched
				return best, nil // comfortably clean
			}
		}
		if bestMis == 0 {
			break
		}
	}
	best.Timings = searched
	return best, nil
}

// rehearse demodulates the predicted waveform's packet region with the
// actual receiver implementation (noise-free) and compares bit decisions
// against the ideal target waveform's — synthesis-time reception
// rehearsal, cf. Recitation [39]. It returns the number of mismatched
// decisions and the worst agreeing decision margin (normalized).
func (s *Synthesizer) rehearse(res *Result, pktLen int) (mismatches int, minMargin float64) {
	s.met.observeCandidate()
	if res.Waveform == nil {
		return 0, 0
	}
	start := res.DataStart + res.GFSKStart
	if start+pktLen > len(res.Waveform) {
		return 0, 0
	}
	if s.rehearseRx == nil {
		rcv, err := btrx.NewReceiver(btrx.Profile{Name: "rehearsal"}, s.lastOffsetHz, bt.Device{})
		if err != nil {
			return 0, 0
		}
		s.rehearseRx = rcv
	}
	s.rehearseRx.ChannelOffsetHz = s.lastOffsetHz
	ideal := dsp.GetComplex(pktLen)
	defer dsp.PutComplex(ideal)
	dsp.PhaseToIQInto(ideal, res.targetPhase[res.GFSKStart:res.GFSKStart+pktLen], 1)
	phase := start % 20
	predBits, predAcc := s.rehearseRx.DemodAtPhase(res.Waveform[start-phase:start+pktLen], phase)
	idealBits, idealAcc := s.rehearseRx.DemodAtPhase(ideal, 0)
	n := len(idealBits)
	if len(predBits) < n {
		n = len(predBits)
	}
	var scale float64
	for i := 0; i < n; i++ {
		if m := math.Abs(idealAcc[i]); m > scale {
			scale = m
		}
	}
	// Only confident ideal decisions count: the carrier-only pads (and
	// GFSK zero-crossing instants at unlucky phases) have near-zero
	// integrals whose signs are meaningless.
	floor := 0.15 * scale
	minMargin = math.Inf(1)
	for i := 0; i < n; i++ {
		if math.Abs(idealAcc[i]) < floor {
			continue
		}
		if predBits[i] != idealBits[i] {
			mismatches++
			continue
		}
		if m := math.Abs(predAcc[i]); m < minMargin {
			minMargin = m
		}
	}
	if scale > 0 && !math.IsInf(minMargin, 1) {
		minMargin /= scale
	}
	return mismatches, minMargin
}

// synthesizeShifted runs the pipeline once with an extra global rotation
// and the lead padded by extraLead symbols.
func (s *Synthesizer) synthesizeShifted(ctx context.Context, basebandPhase []float64, btMHz float64, rot float64, extraLead int) (*Result, error) {
	plan, err := PlanForChannel(btMHz, s.opts.WiFiChannel)
	if err != nil {
		return nil, err
	}
	s.extraPhase = rot
	s.extraLead = extraLead
	defer func() { s.extraPhase = 0; s.extraLead = 0 }()

	s.lastOffsetHz = plan.OffsetHz
	theta, lead, nsym := s.layoutPhase(basebandPhase, plan.OffsetHz)
	iterations := s.opts.PredistortIterations
	if iterations <= 0 || s.opts.PSDUOnly {
		iterations = 0 // single open-loop pass (closed loop does not converge)
	}
	target := theta
	if s.opts.CPPrecompensation {
		target, err = s.precompensateCP(theta, target, plan.OffsetHz)
		if err != nil {
			return nil, err
		}
	}
	if s.opts.PilotPrecompensation {
		target, err = s.precompensatePilots(theta, target, nsym, plan.OffsetHz)
		if err != nil {
			return nil, err
		}
	}
	var pass *synthPass
	var timings Timings
	for it := 0; ; it++ {
		pass, err = s.synthOnce(ctx, target, nsym, plan.OffsetHz)
		if err != nil {
			return nil, err
		}
		timings.IQGen += pass.timings.IQGen
		timings.FFTQAM += pass.timings.FFTQAM
		timings.FEC += pass.timings.FEC
		timings.Scramble += pass.timings.Scramble
		if it >= iterations {
			break
		}
		target, err = s.predistort(theta, target, pass.dataWave)
		if err != nil {
			return nil, err
		}
	}

	// Descramble and pack the PSDU.
	_, spScr := obs.StartSpan(ctx, "core.scramble")
	psduLen, _ := s.frameLayout(nsym)
	descrambled := wifi.ScrambleCopy(pass.data, s.opts.ScramblerSeed)
	psdu, err := bits.PackLSB(descrambled[wifi.ServiceBits : wifi.ServiceBits+8*psduLen])
	dScramble := spScr.End()
	if err != nil {
		return nil, err
	}
	timings.Scramble += dScramble
	s.met.observeScramble(dScramble)

	// Predicted waveform: what the chip will emit for this PSDU
	// (including the preamble when configured).
	waveform := pass.dataWave
	if s.opts.Preamble && !s.opts.PSDUOnly {
		waveform, err = s.tx.TransmitSymbols(pass.symbols, psduLen)
		if err != nil {
			return nil, err
		}
	}
	coded := pass.coded

	res := &Result{
		PSDU:           psdu,
		Plan:           plan,
		Symbols:        nsym,
		CodedBits:      len(coded),
		Flips:          pass.flips,
		ImportantFlips: pass.impFlips,
		Waveform:       waveform,
		DataStart:      s.tx.DataStart(),
		GFSKStart:      lead,
		Timings:        timings,
	}

	res.targetPhase = theta
	// Restrict the important-flip count to symbols carrying the packet.
	pktLen := len(basebandPhase)
	firstSym := lead / symbolLen
	lastSym := (lead + pktLen + symbolLen - 1) / symbolLen
	weights := s.codedBitWeights(plan.OffsetHz, nsym)
	reCoded := wifi.EncodeRate(pass.data, s.mcs.Rate)
	for i := firstSym * s.mcs.NCBPS; i < lastSym*s.mcs.NCBPS && i < len(coded); i++ {
		if reCoded[i] != coded[i] && weights[i] >= WeightImportant {
			res.PacketImportantFlips++
		}
	}

	// In-band phase fidelity over the Bluetooth packet span. The ideal
	// waveform — the offset-mixed target phase itself — is only realized
	// here, off the PSDUOnly hot path.
	start := res.DataStart + lead
	if !s.opts.PSDUOnly && start+pktLen <= len(waveform) {
		ideal := dsp.PhaseToIQ(theta[lead:lead+pktLen], 1)
		res.PhaseRMSE = s.inbandPhaseRMSE(ideal, waveform[start:start+pktLen], plan.OffsetHz)
	}
	return res, nil
}

// inbandPhaseRMSE compares two waveform segments after mixing to the
// Bluetooth channel and applying the nominal 600 kHz channel filter —
// the fidelity a Bluetooth receiver actually experiences.
func (s *Synthesizer) inbandPhaseRMSE(ideal, predicted []complex128, offsetHz float64) float64 {
	if s.predistFIR == nil {
		fir, err := dsp.LowpassFIR(600e3, wifi.SampleRate, 101)
		if err != nil {
			return 0
		}
		s.predistFIR = fir
	}
	a := dsp.GetComplex(len(ideal))
	b := dsp.GetComplex(len(predicted))
	aIB := dsp.GetComplex(len(ideal))
	bIB := dsp.GetComplex(len(predicted))
	defer func() {
		dsp.PutComplex(a)
		dsp.PutComplex(b)
		dsp.PutComplex(aIB)
		dsp.PutComplex(bIB)
	}()
	copy(a, ideal)
	copy(b, predicted)
	dsp.Mix(a, -offsetHz, wifi.SampleRate, 0)
	dsp.Mix(b, -offsetHz, wifi.SampleRate, 0)
	s.predistFIR.ApplyInto(aIB, a)
	s.predistFIR.ApplyInto(bIB, b)
	return dsp.PhaseRMSE(aIB, bIB)
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// PSDULenForSymbols exposes the frame layout for tests and the chip model.
func (s *Synthesizer) PSDULenForSymbols(nsym int) (psduLen, pad int) { return s.frameLayout(nsym) }
