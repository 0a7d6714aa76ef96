package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter with real taps, applied to
// complex IQ streams. The zero value is an identity (no-op) filter.
type FIR struct {
	Taps []float64
}

// LowpassFIR designs a windowed-sinc (Hamming) lowpass filter with the
// given cutoff frequency in Hz at sampleRate, using numTaps coefficients
// (odd numbers give a symmetric, linear-phase filter with integer group
// delay). The DC gain is normalized to 1.
func LowpassFIR(cutoff, sampleRate float64, numTaps int) (*FIR, error) {
	if numTaps < 3 {
		return nil, fmt.Errorf("dsp: lowpass needs ≥ 3 taps, got %d", numTaps)
	}
	if cutoff <= 0 || cutoff >= sampleRate/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz outside (0, %g)", cutoff, sampleRate/2)
	}
	fc := cutoff / sampleRate
	taps := make([]float64, numTaps)
	mid := float64(numTaps-1) / 2
	var sum float64
	for i := range taps {
		t := float64(i) - mid
		var s float64
		if t == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(numTaps-1)) // Hamming
		taps[i] = s * w
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return &FIR{Taps: taps}, nil
}

// GroupDelay returns the filter's group delay in samples for symmetric
// (linear-phase) designs.
func (f *FIR) GroupDelay() int { return (len(f.Taps) - 1) / 2 }

// Apply convolves x with the filter taps and returns a slice of the same
// length, delay-compensated so that output sample n aligns with input
// sample n (the GroupDelay leading samples of raw convolution output are
// dropped, and the tail is zero-padded).
func (f *FIR) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	f.ApplyInto(out, x)
	return out
}

// ApplyInto is Apply writing into a caller-provided buffer of the same
// length as x (which must not alias x) — the allocation-free variant for
// hot paths that reuse pooled buffers.
//
//bluefi:allocfree
func (f *FIR) ApplyInto(out, x []complex128) {
	if len(out) != len(x) {
		panic("dsp: ApplyInto length mismatch")
	}
	if len(f.Taps) == 0 {
		copy(out, x)
		return
	}
	// Output n sums taps[k]·x[n+d−k] over the k that index inside x, in
	// ascending k. The taps are real, so each term costs two multiplies;
	// the accumulators start at +0 and so never reach −0, which makes the
	// componentwise sums bit-identical to complex(t, 0)·x products.
	// Outputs in [lo, hi) see every tap inside x; they run four at a
	// time, so four independent sums overlap in the pipeline while each
	// keeps its own order.
	d := f.GroupDelay()
	lo := min(len(f.Taps)-1-d, len(out))
	hi := max(len(x)-d, lo)
	n := 0
	for ; n < lo; n++ {
		out[n] = f.sumAt(x, n)
	}
	for ; n+4 <= hi; n += 4 {
		var r0, i0, r1, i1, r2, i2, r3, i3 float64
		for k, t := range f.Taps {
			v := x[n+d-k : n+d-k+4]
			r0 += t * real(v[0])
			i0 += t * imag(v[0])
			r1 += t * real(v[1])
			i1 += t * imag(v[1])
			r2 += t * real(v[2])
			i2 += t * imag(v[2])
			r3 += t * real(v[3])
			i3 += t * imag(v[3])
		}
		out[n] = complex(r0, i0)
		out[n+1] = complex(r1, i1)
		out[n+2] = complex(r2, i2)
		out[n+3] = complex(r3, i3)
	}
	for ; n < len(out); n++ {
		out[n] = f.sumAt(x, n)
	}
}

// sumAt is output n of ApplyInto, skipping the taps that fall outside x.
//
//bluefi:allocfree
func (f *FIR) sumAt(x []complex128, n int) complex128 {
	d := f.GroupDelay()
	var re, im float64
	for k := max(0, n+d-len(x)+1); k <= min(len(f.Taps)-1, n+d); k++ {
		t, v := f.Taps[k], x[n+d-k]
		re += t * real(v)
		im += t * imag(v)
	}
	return complex(re, im)
}

// GaussianPulse returns a unit-area Gaussian pulse for GFSK shaping with
// bandwidth-time product bt, bit duration of spb samples, truncated to
// spanBits bit periods (total length spanBits*spb+1, odd and symmetric).
//
// The pulse is the impulse response g(t) = (1/2T)·[Q(a·(t/T−1/2)) −
// Q(a·(t/T+1/2))]-equivalent Gaussian used by Bluetooth (BT=0.5), sampled
// and normalized so the taps sum to 1: convolving the NRZ frequency signal
// with it preserves total frequency deviation.
func GaussianPulse(bt float64, spb, spanBits int) []float64 {
	if spanBits < 1 {
		spanBits = 1
	}
	n := spanBits*spb + 1
	taps := make([]float64, n)
	mid := float64(n-1) / 2
	// Standard GFSK Gaussian: sigma (in bit periods) = sqrt(ln2)/(2π·BT).
	sigma := math.Sqrt(math.Ln2) / (2 * math.Pi * bt) * float64(spb)
	var sum float64
	for i := range taps {
		t := float64(i) - mid
		taps[i] = math.Exp(-t * t / (2 * sigma * sigma))
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}
