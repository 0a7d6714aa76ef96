// Package viterbi inverts the 802.11 convolutional encoder for BlueFi's
// I4 compensation (paper §2.7). It provides two decoders:
//
//   - Decode: a weighted hard-decision Viterbi over the rate-1/2 mother
//     code with per-position weights, erasures at punctured positions, and
//     pinned head/tail input bits. Weights let BlueFi make bits that map
//     to Bluetooth-occupied subcarriers effectively unflippable (Table 1).
//
//   - RealTimeInvert: the O(T) exact-match inverse coder for rate 2/3. In
//     each output triplet (A1,B1,A2) both generator polynomials tap the
//     current input bit, so fixing A2 plus one of {A1,B1} determines the
//     two input bits by back-substitution — two of three coded bits are
//     reproduced exactly and the possible flip is steered onto the
//     remaining one. This realizes the paper's "at most 1/3 of bits flip,
//     important bits never" guarantee with O(1) work per triplet.
//
// The encoder definition is self-contained (the same K=7 (133,171)₈ code
// as package wifi) so the two packages stay independent; a cross-check
// test asserts they agree.
//
//bluefi:strict
package viterbi

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	numStates = 64
	genA      = 0x6D // taps {0,2,3,5,6}, bit k = input k steps ago
	genB      = 0x4F // taps {0,1,2,3,6}
)

// outputs returns the (A,B) pair for input u at state s.
func outputs(s uint8, u byte) (byte, byte) {
	full := uint(s)<<1 | uint(u&1)
	return byte(bits.OnesCount(full&genA) & 1), byte(bits.OnesCount(full&genB) & 1)
}

func nextState(s uint8, u byte) uint8 {
	return uint8((uint(s)<<1 | uint(u&1)) & 0x3F)
}

// Encode runs the rate-1/2 mother code from state init, emitting A then B
// per input bit, and returns the coded bits and final state.
func Encode(in []byte, init uint8) ([]byte, uint8) {
	out := make([]byte, 0, 2*len(in))
	s := init & 0x3F
	for _, u := range in {
		a, b := outputs(s, u)
		out = append(out, a, b)
		s = nextState(s, u)
	}
	return out, s
}

// Input describes one weighted decoding problem over mother-code
// positions (two per information bit, A first).
type Input struct {
	// Bits holds the target mother-code bits; its length must be even.
	Bits []byte
	// Weight holds one non-negative weight per mother position. A zero
	// weight marks an erasure (punctured or don't-care position). nil
	// means all weights are 1.
	Weight []float64
	// PinnedPrefix forces the first input bits to known values (BlueFi
	// pins the scrambled SERVICE field).
	PinnedPrefix []byte
	// PinnedSuffix forces the last input bits to known values: the
	// convolutional tail (six zeros) optionally followed by pad bits
	// pinned to the scrambler sequence.
	PinnedSuffix []byte
	// Obs, when non-nil, receives decode telemetry (counts only — never
	// an input to the decode itself).
	Obs *Metrics
}

// PinnedSuffixZeros returns a suffix of n zero bits, the common tail case.
func PinnedSuffixZeros(n int) []byte { return make([]byte, n) }

// butterflyOut[j] is the (A,B) output pair, packed A<<1|B, of the
// transition from state j on input 0. Both generators tap the input (D⁰)
// and the oldest register bit (D⁶), so flipping either inverts both
// outputs: the butterfly's other three transitions — j on input 1 and
// j|32 on either input — emit this pair or its complement (^3).
var butterflyOut = func() (t [numStates / 2]uint8) {
	for j := range t {
		a, b := outputs(uint8(j), 0)
		t[j] = a<<1 | b
	}
	return t
}()

// Decode finds input bits minimizing the weighted Hamming distance between
// the re-encoded output and in.Bits. It returns the information bits
// (length len(Bits)/2).
//
// Each trellis step is a pull-form add-compare-select over 32 butterflies:
// butterfly j reads states j and j|32 and writes states 2j and 2j+1, and
// its four transitions share two of the step's four branch metrics. On
// equal cost the lower predecessor (j) wins, so among equal-cost paths
// the result is the one a forward push over ascending states with a
// strict < keeps.
//
// Precondition for that exactness: every weight is integer-valued (core's
// Table 1 weights × bit significance, 0/1 erasure masks), so every path
// cost is an integer below 2⁵³ and summing a step's two position costs
// before adding them to the path metric rounds nowhere. Non-integer
// weights still give a minimum-cost path, up to rounding.
func Decode(in Input) ([]byte, error) {
	if len(in.Bits)%2 != 0 {
		return nil, fmt.Errorf("viterbi: %d mother bits, want even", len(in.Bits))
	}
	n := len(in.Bits) / 2
	if in.Weight != nil && len(in.Weight) != len(in.Bits) {
		return nil, fmt.Errorf("viterbi: %d weights for %d positions", len(in.Weight), len(in.Bits))
	}
	if len(in.PinnedPrefix)+len(in.PinnedSuffix) > n {
		return nil, fmt.Errorf("viterbi: pinned %d+%d bits exceed %d inputs",
			len(in.PinnedPrefix), len(in.PinnedSuffix), n)
	}

	var metric, next [numStates]float64
	for s := range metric {
		metric[s] = math.Inf(1)
	}
	metric[0] = 0
	// survivors[t] bit s is set when the path entering state s after
	// input t came from the upper predecessor (s>>1)|32 rather than s>>1.
	// The input bit itself is bit 0 of s (state = six most recent inputs,
	// newest in bit 0).
	survivors := make([]uint64, n)
	suffixStart := n - len(in.PinnedSuffix)

	for t := 0; t < n; t++ {
		// bm[o] is the cost of emitting the packed pair o at this step.
		ta, tb := in.Bits[2*t]&1, in.Bits[2*t+1]&1
		wa, wb := 1.0, 1.0
		if in.Weight != nil {
			wa, wb = in.Weight[2*t], in.Weight[2*t+1]
		}
		var bm [4]float64
		for o := range bm {
			var ea, eb float64
			if byte(o>>1) != ta {
				ea = wa
			}
			if byte(o&1) != tb {
				eb = wb
			}
			bm[o] = ea + eb
		}

		var dec uint64
		for j := 0; j < numStates/2; j++ {
			o := butterflyOut[j]
			lo, hi := metric[j], metric[j|numStates/2]
			same, flip := bm[o&3], bm[(o^3)&3] // &3: o < 4; drops the bounds checks
			// Input 0 → state 2j: the lower predecessor emits o, the
			// upper its complement; input 1 → 2j+1 swaps them. The upper
			// predecessor survives only when strictly cheaper.
			c0, c1 := lo+same, hi+flip
			var up0 uint64
			if c1 < c0 {
				up0 = 1
			}
			next[2*j] = min(c0, c1)
			c2, c3 := lo+flip, hi+same
			var up1 uint64
			if c3 < c2 {
				up1 = 2
			}
			next[2*j+1] = min(c2, c3)
			dec |= (up0 | up1) << (2 * j)
		}
		survivors[t] = dec

		// A pinned input rules out the states whose newest bit differs.
		forced := -1
		switch {
		case t < len(in.PinnedPrefix):
			forced = int(in.PinnedPrefix[t] & 1)
		case t >= suffixStart:
			forced = int(in.PinnedSuffix[t-suffixStart] & 1)
		}
		if forced >= 0 {
			for s := 1 - forced; s < numStates; s += 2 {
				next[s] = math.Inf(1)
			}
		}
		metric = next
	}

	// Select the best terminal state; pinned suffix bits already restrict
	// the reachable set (six zero tail bits force state 0).
	best := 0
	bestM := math.Inf(1)
	for s, m := range metric {
		if m < bestM {
			bestM, best = m, s
		}
	}
	if math.IsInf(metric[best], 1) {
		return nil, fmt.Errorf("viterbi: no path satisfies the pinned bits")
	}

	// Traceback: input t is bit 0 of the state entered after step t.
	info := make([]byte, n)
	s := uint(best)
	for t := n - 1; t >= 0; t-- {
		info[t] = byte(s & 1)
		s = s>>1 | (uint(survivors[t]>>s)&1)<<5
	}
	in.Obs.observeDecode(n)
	return info, nil
}

// Cost re-encodes info and returns the weighted Hamming distance to the
// target, using the same conventions as Decode.
func Cost(info, target []byte, weight []float64) float64 {
	coded, _ := Encode(info, 0)
	var c float64
	for i := range coded {
		if i >= len(target) {
			break
		}
		if coded[i] != target[i]&1 {
			if weight == nil {
				c++
			} else {
				c += weight[i]
			}
		}
	}
	return c
}
