// Package gfsk synthesizes Bluetooth GFSK waveforms (paper §2.3): air bits
// are shaped into a Gaussian-filtered frequency trajectory, integrated
// into a phase signal, optionally shifted to the Bluetooth channel's
// offset from the WiFi channel center, and converted to IQ samples at the
// WiFi hardware rate of 20 Msps.
//
//bluefi:strict
package gfsk

import (
	"fmt"
	"math"
	"sync"

	"bluefi/internal/dsp"
)

// Config parameterizes the modulator.
type Config struct {
	// SampleRate in Hz; WiFi hardware generates IQ at 20 MHz.
	SampleRate float64
	// BitRate in bits/s; basic-rate Bluetooth and LE 1M are 1 Mb/s.
	BitRate float64
	// Deviation is the peak frequency deviation in Hz: ±160 kHz for
	// BR/EDR (modulation index 0.32), ±250 kHz for LE 1M (index 0.5).
	Deviation float64
	// BT is the Gaussian filter's bandwidth-time product (0.5 for
	// Bluetooth).
	BT float64
	// PadBits inserts zero-frequency (carrier-only) samples before and
	// after the packet, a pattern observed on commercial chips (§2.3).
	PadBits int
	// CenterOffset shifts the waveform to the Bluetooth channel's offset
	// from the WiFi channel center, in Hz. Applied to the phase signal
	// before CP design, since the two operations do not commute (§2.3).
	CenterOffset float64
}

// BRConfig returns the basic-rate configuration at 20 Msps.
func BRConfig() Config {
	return Config{SampleRate: 20e6, BitRate: 1e6, Deviation: 160e3, BT: 0.5, PadBits: 8}
}

// BLEConfig returns the LE 1M configuration at 20 Msps.
func BLEConfig() Config {
	return Config{SampleRate: 20e6, BitRate: 1e6, Deviation: 250e3, BT: 0.5, PadBits: 8}
}

// SamplesPerBit returns the oversampling factor, which must be an integer.
func (c Config) SamplesPerBit() int { return int(c.SampleRate / c.BitRate) }

func (c Config) validate() error {
	if c.SampleRate <= 0 || c.BitRate <= 0 {
		return fmt.Errorf("gfsk: rates must be positive")
	}
	spb := c.SampleRate / c.BitRate
	if spb != math.Trunc(spb) || spb < 2 {
		return fmt.Errorf("gfsk: %g samples per bit is not a usable integer", spb)
	}
	if c.Deviation <= 0 || c.Deviation >= c.BitRate {
		return fmt.Errorf("gfsk: deviation %g Hz out of range", c.Deviation)
	}
	if c.BT <= 0 || c.BT > 1 {
		return fmt.Errorf("gfsk: BT product %g out of range (0,1]", c.BT)
	}
	if c.PadBits < 0 {
		return fmt.Errorf("gfsk: negative pad")
	}
	return nil
}

// shapeSpanBits is the Gaussian pulse's truncation span in bit periods.
const shapeSpanBits = 3

// shapeWindow is the number of NRZ symbols one shaped sample can see: the
// 3·spb+1 taps, centred on the sample, reach into at most four symbols.
const shapeWindow = shapeSpanBits + 1

// shapePatterns counts the symbol windows: each symbol is −1, 0 (pad) or
// +1, so 3^shapeWindow.
const shapePatterns = 81

// shaper is the Gaussian shaping filter as a lookup table. The NRZ train
// it filters is piecewise-constant over whole symbols, so an output
// sample depends only on its sub-bit phase p and the values of the
// shapeWindow symbols its taps reach, starting lo[p] symbols from its
// own. tab[p*shapePatterns+pattern] holds the filter output for each
// window pattern, summed tap by tap in the same order as a direct
// convolution — so the lookup is bit-identical to filtering the train.
type shaper struct {
	spb int
	lo  []int
	tab []float64
}

// floorDiv is ⌊a/b⌋ for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// newShaper tabulates the delay-compensated convolution with taps.
func newShaper(taps []float64, spb int) *shaper {
	d := (len(taps) - 1) / 2
	sh := &shaper{spb: spb, lo: make([]int, spb), tab: make([]float64, spb*shapePatterns)}
	for p := range sh.lo {
		lo := floorDiv(p-d, spb)
		sh.lo[p] = lo
		for pat := 0; pat < shapePatterns; pat++ {
			var acc float64
			for k, t := range taps {
				// Tap k reads sample p+d−k; m is its symbol's place in
				// the window and digit m of pat (base 3) its value + 1.
				m := floorDiv(p+d-k, spb) - lo
				digit := pat
				for ; m > 0; m-- {
					digit /= 3
				}
				acc += t * float64(digit%3-1)
			}
			sh.tab[p*shapePatterns+pat] = acc
		}
	}
	return sh
}

// shaperCache memoizes one shaper per Gaussian pulse (BT, spb). The
// table is data-independent and shared read-only, so every packet of a
// stream reuses it instead of re-filtering with the pulse per synthesis.
var shaperCache struct {
	sync.Mutex
	m map[pulseKey]*shaper
}

type pulseKey struct {
	bt  float64
	spb int
}

func cachedShaper(bt float64, spb int) *shaper {
	key := pulseKey{bt: bt, spb: spb}
	shaperCache.Lock()
	defer shaperCache.Unlock()
	if sh, ok := shaperCache.m[key]; ok {
		return sh
	}
	if shaperCache.m == nil {
		shaperCache.m = make(map[pulseKey]*shaper)
	}
	sh := newShaper(dsp.GaussianPulse(bt, spb, shapeSpanBits), spb)
	shaperCache.m[key] = sh
	return sh
}

// shapeInto writes the shaped NRZ train of air bits framed by pad
// zero-frequency symbols on each side, scaled by gain, into dst
// (len(dst) = (2*pad + len(airBits))·spb). Symbols beyond either end take
// the edge symbol's value: the frequency signal is flat outside.
//
//bluefi:allocfree
func (sh *shaper) shapeInto(dst []float64, airBits []byte, pad int, gain float64) {
	nSym := 2*pad + len(airBits)
	for i := 0; i < nSym; i++ {
		row := dst[i*sh.spb : (i+1)*sh.spb]
		pat, patLo := 0, 1 // no window starts one symbol after its sample
		for p := range row {
			if lo := sh.lo[p]; lo != patLo {
				pat, patLo = 0, lo
				for m := shapeWindow - 1; m >= 0; m-- {
					pat = 3*pat + symbolDigit(airBits, pad, i+lo+m)
				}
			}
			row[p] = sh.tab[p*shapePatterns+pat] * gain
		}
	}
}

// symbolDigit returns NRZ symbol i's value + 1 (0, 1 or 2) for air bits
// framed by pad zero symbols on each side, with i clamped to the signal.
//
//bluefi:allocfree
func symbolDigit(airBits []byte, pad, i int) int {
	i = min(max(i, 0), 2*pad+len(airBits)-1)
	if i < pad || i >= pad+len(airBits) {
		return 1
	}
	return 2 * int(airBits[i-pad]&1)
}

// FrequencySignal shapes air bits into the instantaneous-frequency
// trajectory in Hz (including pads), before any center offset.
func (c Config) FrequencySignal(airBits []byte) ([]float64, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	spb := c.SamplesPerBit()
	shaped := make([]float64, (2*c.PadBits+len(airBits))*spb)
	cachedShaper(c.BT, spb).shapeInto(shaped, airBits, c.PadBits, c.Deviation)
	return shaped, nil
}

// PhaseSignal converts air bits into the accumulated phase trajectory
// θ[n] in radians, with the configured center offset already mixed in —
// the exact input to BlueFi's CP-insertion design (§2.4). The frequency
// buffer is converted to angular steps and integrated in place, so one
// allocation serves the whole trajectory.
func (c Config) PhaseSignal(airBits []byte) ([]float64, error) {
	freq, err := c.FrequencySignal(airBits)
	if err != nil {
		return nil, err
	}
	offsetStep := 2 * math.Pi * c.CenterOffset / c.SampleRate
	for i, f := range freq {
		freq[i] = 2*math.Pi*f/c.SampleRate + offsetStep
	}
	dsp.IntegrateFrequencyInto(freq, freq, 0)
	return freq, nil
}

// Modulate produces the unit-amplitude IQ waveform for the air bits.
func (c Config) Modulate(airBits []byte) ([]complex128, error) {
	theta, err := c.PhaseSignal(airBits)
	if err != nil {
		return nil, err
	}
	return dsp.PhaseToIQ(theta, 1), nil
}

// PayloadStart returns the sample index where the first air bit begins.
func (c Config) PayloadStart() int { return c.PadBits * c.SamplesPerBit() }
