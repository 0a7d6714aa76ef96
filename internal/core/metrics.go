package core

import (
	"time"

	"bluefi/internal/obs"
)

// coreMetrics holds the synthesis pipeline's registered telemetry
// handles. A nil *coreMetrics is the disabled state: every method
// no-ops after one branch, so instrumentation sites never check a flag
// and a Synthesizer built without Options.Telemetry pays nothing.
//
// The stage histograms partition part of the synth histogram: every
// stage span runs inside its call's core.synth span, so per call the
// stage sums never exceed the synth observation. The remainder is
// unspanned work (layout, re-encoding, waveform reconstruction,
// rehearsal).
type coreMetrics struct {
	stageShape    *obs.Histogram
	stagePrecomp  *obs.Histogram
	stageIQGen    *obs.Histogram
	stageFFTQAM   *obs.Histogram
	stageFEC      *obs.Histogram
	stageScramble *obs.Histogram
	synthSeconds  *obs.Histogram
	synths        *obs.Counter
	candidates    *obs.Counter
	dirty         *obs.Counter
}

func newCoreMetrics(r *obs.Registry, mode Mode) *coreMetrics {
	if r == nil {
		return nil
	}
	// 10µs to ~5s in ×3 steps: DM1 real-time stages sit near the bottom,
	// quality-mode Viterbi near the middle, worst-case searches at the top.
	stageBuckets := obs.ExpBuckets(1e-5, 3, 12)
	stage := func(name string) *obs.Histogram {
		return r.Histogram("bluefi_core_stage_seconds",
			"synthesis stage latency (§4.8 breakdown)", stageBuckets, obs.L("stage", name))
	}
	m := obs.L("mode", mode.String())
	return &coreMetrics{
		stageShape:    stage("shape"),
		stagePrecomp:  stage("precomp"),
		stageIQGen:    stage("iqgen"),
		stageFFTQAM:   stage("fftqam"),
		stageFEC:      stage("fec"),
		stageScramble: stage("scramble"),
		synthSeconds: r.Histogram("bluefi_core_synth_seconds",
			"end-to-end packet synthesis latency", obs.ExpBuckets(1e-4, 3, 12), m),
		synths: r.Counter("bluefi_core_synth_total", "packets synthesized", m),
		candidates: r.Counter("bluefi_core_rehearsal_candidates_total",
			"phase-search candidates scored by reception rehearsal"),
		dirty: r.Counter("bluefi_core_rehearsal_dirty_total",
			"synthesis results whose best candidate still rehearsed with mismatches"),
	}
}

// observeShape records one call's GFSK shaping (air bits to phase).
func (m *coreMetrics) observeShape(d time.Duration) {
	if m == nil {
		return
	}
	m.stageShape.Observe(d.Seconds())
}

// observePrecomp records one pass's CP and pilot pre-compensation.
func (m *coreMetrics) observePrecomp(d time.Duration) {
	if m == nil {
		return
	}
	m.stagePrecomp.Observe(d.Seconds())
}

// observePass records one open-loop pass's stage durations.
func (m *coreMetrics) observePass(iqgen, fftqam, fec time.Duration) {
	if m == nil {
		return
	}
	m.stageIQGen.Observe(iqgen.Seconds())
	m.stageFFTQAM.Observe(fftqam.Seconds())
	m.stageFEC.Observe(fec.Seconds())
}

// observeScramble records the descramble/pack stage.
func (m *coreMetrics) observeScramble(d time.Duration) {
	if m == nil {
		return
	}
	m.stageScramble.Observe(d.Seconds())
}

// observeSynth records one completed end-to-end synthesis.
func (m *coreMetrics) observeSynth(d time.Duration, mismatches int) {
	if m == nil {
		return
	}
	m.synthSeconds.Observe(d.Seconds())
	m.synths.Inc()
	if mismatches > 0 {
		m.dirty.Inc()
	}
}

// observeCandidate counts one rehearsal-scored search candidate.
func (m *coreMetrics) observeCandidate() {
	if m == nil {
		return
	}
	m.candidates.Inc()
}
