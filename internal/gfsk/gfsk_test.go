package gfsk

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"bluefi/internal/dsp"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SampleRate: 0, BitRate: 1e6, Deviation: 160e3, BT: 0.5},
		{SampleRate: 20e6, BitRate: 0, Deviation: 160e3, BT: 0.5},
		{SampleRate: 20e6, BitRate: 1e6, Deviation: 0, BT: 0.5},
		{SampleRate: 20e6, BitRate: 1e6, Deviation: 2e6, BT: 0.5},
		{SampleRate: 20e6, BitRate: 1e6, Deviation: 160e3, BT: 0},
		{SampleRate: 20e6, BitRate: 1e6, Deviation: 160e3, BT: 2},
		{SampleRate: 20e6, BitRate: 1e6, Deviation: 160e3, BT: 0.5, PadBits: -1},
		{SampleRate: 20e6, BitRate: 1.5e6, Deviation: 160e3, BT: 0.5}, // non-integer spb
	}
	for i, c := range bad {
		if _, err := c.Modulate([]byte{1, 0, 1}); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestModulateConstantAmplitude(t *testing.T) {
	c := BRConfig()
	iq, err := c.Modulate([]byte{1, 0, 1, 1, 0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range iq {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("sample %d amplitude %g", i, cmplx.Abs(v))
		}
	}
	wantLen := (8 + 8 + 8) * 20
	if len(iq) != wantLen {
		t.Fatalf("length %d, want %d", len(iq), wantLen)
	}
}

func TestFrequencySignalPolarityAndDeviation(t *testing.T) {
	c := BRConfig()
	// Long runs of ones and zeros reach the full deviation mid-bit.
	air := []byte{1, 1, 1, 1, 1, 0, 0, 0, 0, 0}
	freq, err := c.FrequencySignal(air)
	if err != nil {
		t.Fatal(err)
	}
	spb := c.SamplesPerBit()
	midOnes := freq[c.PayloadStart()+2*spb+spb/2]
	midZeros := freq[c.PayloadStart()+7*spb+spb/2]
	if math.Abs(midOnes-c.Deviation) > c.Deviation*0.01 {
		t.Fatalf("mid-ones deviation %g, want %g", midOnes, c.Deviation)
	}
	if math.Abs(midZeros+c.Deviation) > c.Deviation*0.01 {
		t.Fatalf("mid-zeros deviation %g, want %g", midZeros, -c.Deviation)
	}
	// Pads hold the carrier (zero frequency) well before the packet.
	if math.Abs(freq[0]) > 1 {
		t.Fatalf("pad frequency %g, want ~0", freq[0])
	}
}

// convolveReal is the direct delay-compensated convolution the shaping
// table replaced, holding the edge samples beyond either end. It is the
// oracle the table must match bit for bit.
func convolveReal(out, x, taps []float64) {
	d := (len(taps) - 1) / 2
	for n := range out {
		var acc float64
		for k, t := range taps {
			idx := n + d - k
			if idx < 0 {
				idx = 0
			}
			if idx >= len(x) {
				idx = len(x) - 1
			}
			acc += t * x[idx]
		}
		out[n] = acc
	}
}

// directFrequencySignal shapes air bits the way the table replaced: an
// explicit ±1 NRZ train with zero pads, convolved with the pulse, then
// scaled by the deviation.
func directFrequencySignal(c Config, airBits []byte) []float64 {
	spb := c.SamplesPerBit()
	pad := c.PadBits * spb
	nrz := make([]float64, pad+len(airBits)*spb+pad)
	for i, b := range airBits {
		v := -1.0
		if b&1 == 1 {
			v = 1.0
		}
		for k := 0; k < spb; k++ {
			nrz[pad+i*spb+k] = v
		}
	}
	shaped := make([]float64, len(nrz))
	convolveReal(shaped, nrz, dsp.GaussianPulse(c.BT, spb, shapeSpanBits))
	for i := range shaped {
		shaped[i] *= c.Deviation
	}
	return shaped
}

func TestFrequencySignalMatchesDirectConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, base := range []Config{BRConfig(), BLEConfig()} {
		for _, pad := range []int{0, 8} {
			c := base
			c.PadBits = pad
			for n := 1; n <= 64; n++ {
				air := make([]byte, n)
				for i := range air {
					air[i] = byte(rng.Intn(2))
				}
				got, err := c.FrequencySignal(air)
				if err != nil {
					t.Fatal(err)
				}
				want := directFrequencySignal(c, air)
				if len(got) != len(want) {
					t.Fatalf("dev %g pad %d n %d: %d samples, want %d", c.Deviation, pad, n, len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("dev %g pad %d n %d: sample %d = %v, direct convolution %v",
							c.Deviation, pad, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestPhaseSlopeEncodesBits(t *testing.T) {
	// Paper §2.1.1: 1s give positive phase slope, 0s negative.
	c := BRConfig()
	theta, err := c.PhaseSignal([]byte{1, 1, 1, 1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	spb := c.SamplesPerBit()
	s := c.PayloadStart()
	if theta[s+3*spb] <= theta[s+spb] {
		t.Fatal("phase not rising over 1s")
	}
	if theta[s+8*spb-1] >= theta[s+5*spb] {
		t.Fatal("phase not falling over 0s")
	}
}

func TestCenterOffsetShiftsSpectrum(t *testing.T) {
	c := BLEConfig()
	c.CenterOffset = 3e6
	bitsIn := make([]byte, 96)
	for i := range bitsIn {
		bitsIn[i] = byte(i & 1) // alternating: spectrum symmetric around offset
	}
	iq, err := c.Modulate(bitsIn)
	if err != nil {
		t.Fatal(err)
	}
	n := 2048
	plan, _ := dsp.NewFFTPlan(n)
	X := plan.Forward(iq[:n])
	peak, peakBin := 0.0, 0
	for k, v := range X {
		if cmplx.Abs(v) > peak {
			peak, peakBin = cmplx.Abs(v), k
		}
	}
	f := dsp.BinSubcarrier(peakBin, n)
	freqHz := float64(f) * c.SampleRate / float64(n)
	if math.Abs(freqHz-3e6) > 600e3 {
		t.Fatalf("spectral peak at %g Hz, want ≈3 MHz", freqHz)
	}
}

func TestGaussianReducesOccupiedBandwidth(t *testing.T) {
	// The Gaussian filter must suppress energy beyond ±1 MHz relative to
	// total (99% in-band for BT=0.5 GFSK at 1 Mb/s).
	c := BRConfig()
	bitsIn := make([]byte, 200)
	for i := range bitsIn {
		bitsIn[i] = byte((i / 3) & 1)
	}
	iq, _ := c.Modulate(bitsIn)
	n := 4096
	plan, _ := dsp.NewFFTPlan(n)
	X := plan.Forward(iq[:n])
	var inBand, total float64
	for k, v := range X {
		p := real(v)*real(v) + imag(v)*imag(v)
		total += p
		f := math.Abs(float64(dsp.BinSubcarrier(k, n))) * c.SampleRate / float64(n)
		if f <= 1e6 {
			inBand += p
		}
	}
	if inBand/total < 0.99 {
		t.Fatalf("in-band fraction %.4f, want ≥ 0.99", inBand/total)
	}
}

func BenchmarkModulateDH1(b *testing.B) {
	c := BRConfig()
	air := make([]byte, 366)
	for i := range air {
		air[i] = byte(i & 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Modulate(air); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrequencySignal(b *testing.B) {
	c := BRConfig()
	air := make([]byte, 366) // one DH1 packet
	for i := range air {
		air[i] = byte(i / 3 & 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.FrequencySignal(air); err != nil {
			b.Fatal(err)
		}
	}
}
