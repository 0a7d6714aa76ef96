package viterbi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceDecode is the textbook forward-push Viterbi that Decode
// replaced: every state pushes both inputs into its successors, costs
// accumulate one position at a time, and a strict < over ascending
// states keeps the lower predecessor on ties. It is the oracle the
// butterfly decoder must match bit for bit on integer weights.
func referenceDecode(in Input) ([]byte, error) {
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
	weight := func(pos int) float64 {
		if in.Weight == nil {
			return 1
		}
		return in.Weight[pos]
	}

	metric := make([]float64, numStates)
	next := make([]float64, numStates)
	for s := range metric {
		metric[s] = math.Inf(1)
	}
	metric[0] = 0
	// survivors[t][s] = predecessor state of the best path entering state
	// s after input t. The input bit itself is bit 0 of s (state = six
	// most recent inputs, newest in bit 0).
	survivors := make([][numStates]uint8, n)

	for t := 0; t < n; t++ {
		for s := range next {
			next[s] = math.Inf(1)
		}
		var forced int8 = -1
		switch {
		case t < len(in.PinnedPrefix):
			forced = int8(in.PinnedPrefix[t] & 1)
		case t >= n-len(in.PinnedSuffix):
			forced = int8(in.PinnedSuffix[t-(n-len(in.PinnedSuffix))] & 1)
		}
		ta, tb := in.Bits[2*t]&1, in.Bits[2*t+1]&1
		wa, wb := weight(2*t), weight(2*t+1)
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if math.IsInf(m, 1) {
				continue
			}
			for u := byte(0); u <= 1; u++ {
				if forced >= 0 && u != byte(forced) {
					continue
				}
				a, b := outputs(uint8(s), u)
				cost := m
				if a != ta {
					cost += wa
				}
				if b != tb {
					cost += wb
				}
				ns := nextState(uint8(s), u)
				if cost < next[ns] {
					next[ns] = cost
					survivors[t][ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
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
	s := uint8(best)
	for t := n - 1; t >= 0; t-- {
		info[t] = s & 1
		s = survivors[t][s]
	}
	in.Obs.observeDecode(n)
	return info, nil
}

func randBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestEncodeKnownImpulse(t *testing.T) {
	// A single 1 followed by zeros exposes the generator taps: the A
	// stream must equal g0 = 1+D²+D³+D⁵+D⁶ and B must equal
	// g1 = 1+D+D²+D³+D⁶.
	in := []byte{1, 0, 0, 0, 0, 0, 0}
	coded, final := Encode(in, 0)
	var a, b []byte
	for i := 0; i < len(coded); i += 2 {
		a = append(a, coded[i])
		b = append(b, coded[i+1])
	}
	wantA := []byte{1, 0, 1, 1, 0, 1, 1}
	wantB := []byte{1, 1, 1, 1, 0, 0, 1}
	for i := range wantA {
		if a[i] != wantA[i] {
			t.Fatalf("A stream %v, want %v", a, wantA)
		}
		if b[i] != wantB[i] {
			t.Fatalf("B stream %v, want %v", b, wantB)
		}
	}
	if final != 0 {
		t.Fatalf("final state %d, want 0 after flushing", final)
	}
}

func TestDecodeRecoversCleanCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(200)
		info := randBits(rng, n)
		for i := 0; i < 6; i++ { // tail
			info[n-1-i] = 0
		}
		coded, _ := Encode(info, 0)
		dec, err := Decode(Input{Bits: coded, PinnedSuffix: PinnedSuffixZeros(6)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range info {
			if dec[i] != info[i] {
				t.Fatalf("trial %d: bit %d differs", trial, i)
			}
		}
	}
}

func TestDecodeCorrectsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	info := randBits(rng, 120)
	for i := 0; i < 6; i++ {
		info[119-i] = 0
	}
	coded, _ := Encode(info, 0)
	// Sparse errors well within the free distance (d_free = 10).
	for _, p := range []int{5, 60, 130, 200} {
		coded[p] ^= 1
	}
	dec, err := Decode(Input{Bits: coded, PinnedSuffix: PinnedSuffixZeros(6)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range info {
		if dec[i] != info[i] {
			t.Fatalf("bit %d not corrected", i)
		}
	}
}

func TestDecodeHonorsPinnedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := randBits(rng, 2*100) // arbitrary, non-codeword
	pin := randBits(rng, 16)
	dec, err := Decode(Input{Bits: target, PinnedPrefix: pin, PinnedSuffix: PinnedSuffixZeros(6)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pin {
		if dec[i] != pin[i] {
			t.Fatalf("pinned bit %d overridden", i)
		}
	}
	for i := 0; i < 6; i++ {
		if dec[len(dec)-1-i] != 0 {
			t.Fatalf("tail bit not zero")
		}
	}
}

func TestDecodeWeightsProtectImportantBits(t *testing.T) {
	// Random target sequence (not a codeword): heavily-weighted positions
	// must be reproduced exactly whenever the weight dominates.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 80
		target := randBits(rng, 2*n)
		w := make([]float64, 2*n)
		var important []int
		for i := range w {
			w[i] = 1
			// Protect every 6th position strongly; the code has enough
			// freedom to satisfy sparse exact constraints.
			if i%6 == 0 {
				w[i] = 1e6
				important = append(important, i)
			}
		}
		dec, err := Decode(Input{Bits: target, Weight: w})
		if err != nil {
			t.Fatal(err)
		}
		re, _ := Encode(dec, 0)
		for _, p := range important {
			if re[p] != target[p] {
				t.Fatalf("trial %d: important coded bit %d flipped", trial, p)
			}
		}
	}
}

func TestDecodeIsOptimalVsExhaustive(t *testing.T) {
	// For short sequences compare against brute force over all inputs.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 10
		target := randBits(rng, 2*n)
		w := make([]float64, 2*n)
		for i := range w {
			w[i] = 1 + rng.Float64()*4
		}
		dec, err := Decode(Input{Bits: target, Weight: w})
		if err != nil {
			t.Fatal(err)
		}
		got := Cost(dec, target, w)
		best := 1e18
		for v := 0; v < 1<<n; v++ {
			in := make([]byte, n)
			for i := range in {
				in[i] = byte(v>>i) & 1
			}
			if c := Cost(in, target, w); c < best {
				best = c
			}
		}
		if got > best+1e-9 {
			t.Fatalf("trial %d: viterbi cost %g, optimal %g", trial, got, best)
		}
	}
}

func TestDecodeInputValidation(t *testing.T) {
	if _, err := Decode(Input{Bits: make([]byte, 3)}); err == nil {
		t.Error("accepted odd bit count")
	}
	if _, err := Decode(Input{Bits: make([]byte, 8), Weight: make([]float64, 3)}); err == nil {
		t.Error("accepted weight length mismatch")
	}
	if _, err := Decode(Input{Bits: make([]byte, 8), PinnedPrefix: make([]byte, 3), PinnedSuffix: make([]byte, 3)}); err == nil {
		t.Error("accepted over-pinned input")
	}
}

// encodeRate23 produces the punctured rate-2/3 stream (A1,B1,A2 per two
// inputs) used by the real-time inverter.
func encodeRate23(in []byte) []byte {
	mother, _ := Encode(in, 0)
	out := make([]byte, 0, len(mother)*3/4)
	for i := 0; i*2 < len(mother); i++ {
		out = append(out, mother[2*i])
		if i%2 == 0 {
			out = append(out, mother[2*i+1])
		}
	}
	return out
}

func TestRealTimeInvertRoundTripsCodewords(t *testing.T) {
	// A valid rate-2/3 codeword must invert with zero flips.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 * (10 + rng.Intn(200))
		info := randBits(rng, n)
		coded := encodeRate23(info)
		res, err := RealTimeInvert(coded, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Flips) != 0 {
			t.Fatalf("trial %d: %d flips on a codeword", trial, len(res.Flips))
		}
		for i := range info {
			if res.Info[i] != info[i] {
				t.Fatalf("trial %d: info bit %d differs", trial, i)
			}
		}
	}
}

func TestRealTimeInvertGuarantees(t *testing.T) {
	// Arbitrary (non-codeword) targets: protected positions never flip,
	// flips only at the per-triplet free position, flip rate ≤ 1/3.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		nTrip := 50 + rng.Intn(200)
		coded := randBits(rng, 3*nTrip)
		protect := make([]Choice, nTrip)
		for i := range protect {
			protect[i] = Choice(rng.Intn(2))
		}
		res, err := RealTimeInvert(coded, protect, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Info) != 2*nTrip {
			t.Fatalf("info length %d", len(res.Info))
		}
		if len(res.Flips) > nTrip {
			t.Fatalf("flip rate %d/%d exceeds 1/3", len(res.Flips), 3*nTrip)
		}
		for _, f := range res.Flips {
			tr, off := f/3, f%3
			if off == 2 {
				t.Fatalf("A2 flipped at triplet %d", tr)
			}
			if protect[tr] == ProtectB1A2 && off != 0 {
				t.Fatalf("protected B1 flipped at triplet %d", tr)
			}
			if protect[tr] == ProtectA1A2 && off != 1 {
				t.Fatalf("protected A1 flipped at triplet %d", tr)
			}
		}
		// Re-encode and verify the flip list is exactly the difference.
		re := encodeRate23(res.Info)
		var diffs []int
		for i := range coded {
			if re[i] != coded[i] {
				diffs = append(diffs, i)
			}
		}
		if len(diffs) != len(res.Flips) {
			t.Fatalf("flip list %v vs actual %v", res.Flips, diffs)
		}
		for i := range diffs {
			if diffs[i] != res.Flips[i] {
				t.Fatalf("flip list %v vs actual %v", res.Flips, diffs)
			}
		}
	}
}

func TestRealTimeInvertPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nTrip := 40
	coded := randBits(rng, 3*nTrip)
	pin := randBits(rng, 16)
	res, err := RealTimeInvert(coded, nil, pin, PinnedSuffixZeros(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pin {
		if res.Info[i] != pin[i] {
			t.Fatalf("pinned bit %d overridden", i)
		}
	}
	for i := 0; i < 6; i++ {
		if res.Info[len(res.Info)-1-i] != 0 {
			t.Fatal("tail bit not zero")
		}
	}
	if res.FinalState != 0 {
		t.Fatalf("final state %d after zero tail", res.FinalState)
	}
}

func TestRealTimeInvertValidation(t *testing.T) {
	if _, err := RealTimeInvert(make([]byte, 4), nil, nil, nil); err == nil {
		t.Error("accepted non-multiple-of-3 input")
	}
	if _, err := RealTimeInvert(make([]byte, 6), make([]Choice, 1), nil, nil); err == nil {
		t.Error("accepted protect length mismatch")
	}
	if _, err := RealTimeInvert(make([]byte, 6), nil, make([]byte, 3), nil); err == nil {
		t.Error("accepted odd pinned prefix")
	}
	if _, err := RealTimeInvert(make([]byte, 6), nil, nil, make([]byte, 8)); err == nil {
		t.Error("accepted over-pinned suffix")
	}
}

func TestRealTimeBijectionProperty(t *testing.T) {
	// The core algebraic claim: for every state, (B1,A2) ↦ (u1,u2) is a
	// bijection, and so is (A1,A2) ↦ (u1,u2).
	for s := 0; s < 64; s++ {
		seenBA := map[[2]byte]bool{}
		seenAA := map[[2]byte]bool{}
		for u1 := byte(0); u1 <= 1; u1++ {
			for u2 := byte(0); u2 <= 1; u2++ {
				a1, b1 := outputs(uint8(s), u1)
				s1 := nextState(uint8(s), u1)
				a2, _ := outputs(s1, u2)
				seenBA[[2]byte{b1, a2}] = true
				seenAA[[2]byte{a1, a2}] = true
			}
		}
		if len(seenBA) != 4 || len(seenAA) != 4 {
			t.Fatalf("state %d: not bijective (%d, %d)", s, len(seenBA), len(seenAA))
		}
	}
}

func TestEncodeLinearity(t *testing.T) {
	// Convolutional codes are linear: Encode(a⊕b) = Encode(a)⊕Encode(b).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		a, b := randBits(rng, n), randBits(rng, n)
		x := make([]byte, n)
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		ca, _ := Encode(a, 0)
		cb, _ := Encode(b, 0)
		cx, _ := Encode(x, 0)
		for i := range cx {
			if cx[i] != ca[i]^cb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// rate56Erased reports whether mother position i is stolen by the
// 802.11 rate-5/6 puncturer: of every five input bits it keeps A1 B1 A2
// B3 A4 B5, erasing B2, A3, B4 and A5.
func rate56Erased(i int) bool {
	switch i % 10 {
	case 3, 4, 7, 8:
		return true
	}
	return false
}

// coreStyleWeights draws n mother-position weights the way quality-mode
// synthesis builds them: a Table 1 level (don't-care 1, adjacent 100,
// important 1000) times a 64-QAM bit significance (1, 2 or 4), with the
// rate-5/6 stolen positions erased to 0.
func coreStyleWeights(rng *rand.Rand, n int) []float64 {
	levels := []float64{1, 1, 1, 1, 1, 1, 100, 100, 1000, 1000}
	w := make([]float64, n)
	for i := range w {
		if rate56Erased(i) {
			continue
		}
		w[i] = levels[rng.Intn(len(levels))] * float64(int(1)<<rng.Intn(3))
	}
	return w
}

// decodeMatchesReference runs both decoders on in and reports the first
// difference: an error on one side only, or a differing bit.
func decodeMatchesReference(in Input) error {
	got, gotErr := Decode(in)
	want, wantErr := referenceDecode(in)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d bits, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("bit %d = %d, reference %d", i, got[i], want[i])
		}
	}
	return nil
}

func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		name   string
		weight func(n int) []float64
	}{
		// All-ones weights make nearly every comparison a tie, so this
		// family pins the lower-predecessor tie-break.
		{"nil-weights", func(int) []float64 { return nil }},
		{"ones", func(n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				w[i] = 1
			}
			return w
		}},
		{"core-style", func(n int) []float64 { return coreStyleWeights(rng, n) }},
		{"uniform-0-4000", func(n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				if rng.Intn(5) > 0 {
					w[i] = float64(1 + rng.Intn(4000))
				}
			}
			return w
		}},
	}
	for _, c := range cases {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(300)
			in := Input{Bits: randBits(rng, 2*n), Weight: c.weight(2 * n)}
			if trial%2 == 1 {
				pre := rng.Intn(n + 1)
				in.PinnedPrefix = randBits(rng, pre)
				in.PinnedSuffix = randBits(rng, rng.Intn(n-pre+1))
			}
			if err := decodeMatchesReference(in); err != nil {
				t.Fatalf("%s trial %d (n=%d, pins %d+%d): %v", c.name, trial, n,
					len(in.PinnedPrefix), len(in.PinnedSuffix), err)
			}
		}
	}
}

func TestDecodeInfeasiblePinsMatchReference(t *testing.T) {
	// Infinite weights turn positions into hard constraints; a pinned
	// input whose forced output contradicts one leaves no finite path.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(50)
		pin := randBits(rng, 4)
		coded, _ := Encode(pin, 0)
		bits := randBits(rng, 2*n)
		copy(bits, coded)
		bits[2*len(pin)-1] ^= 1 // the last pinned step's B output
		w := make([]float64, 2*n)
		for i := range w {
			w[i] = 1
		}
		w[2*len(pin)-1] = math.Inf(1)
		in := Input{Bits: bits, Weight: w, PinnedPrefix: pin, PinnedSuffix: PinnedSuffixZeros(6)}
		if _, err := Decode(in); err == nil {
			t.Fatalf("trial %d: infeasible pins decoded without error", trial)
		}
		if err := decodeMatchesReference(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzDecodeMatchesReference derives a decoding problem from the fuzz
// bytes — target bits, integer weights in 0..4000 and pin lengths — and
// requires the butterfly decoder to match the forward-push reference.
func FuzzDecodeMatchesReference(f *testing.F) {
	f.Add([]byte{0x5a, 0x13, 0xff, 0x00, 0x42, 0x99, 0x07}, uint8(2), uint8(6))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, pre, suf uint8) {
		n := len(data) / 2
		if n == 0 || n > 512 {
			return
		}
		in := Input{Bits: make([]byte, 2*n), Weight: make([]float64, 2*n)}
		for i := range in.Bits {
			in.Bits[i] = data[i] & 1
			in.Weight[i] = float64(int(data[i]>>1) * 4000 / 127)
		}
		p, q := int(pre)%(n+1), int(suf)
		q %= n - p + 1
		in.PinnedPrefix = make([]byte, p)
		for i := range in.PinnedPrefix {
			in.PinnedPrefix[i] = data[i] >> 7
		}
		in.PinnedSuffix = make([]byte, q)
		for i := range in.PinnedSuffix {
			in.PinnedSuffix[i] = data[len(data)-1-i] >> 6 & 1
		}
		if err := decodeMatchesReference(in); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDecode1000Bits decodes one quality-mode-shaped problem: core
// Table 1 weights, rate-5/6 erasures and the pinned six-bit zero tail.
func BenchmarkDecode1000Bits(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := Input{
		Bits:         randBits(rng, 2000),
		Weight:       coreStyleWeights(rng, 2000),
		PinnedSuffix: PinnedSuffixZeros(6),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealTimeInvert1000Bits(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	coded := randBits(rng, 1500) // 500 triplets = 1000 info bits
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RealTimeInvert(coded, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
