package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bluefi"
	"bluefi/internal/a2dp"
	"bluefi/internal/bt"
	"bluefi/internal/channel"
	"bluefi/internal/l2cap"
	"bluefi/internal/obs"
	"bluefi/internal/sbc"
	"bluefi/internal/scan"
)

// a2dp-dm1x2: two A2DP sessions share one RealTime pool of two
// workers; each session sends in a closed loop on its own goroutine.
// Synthesis is far slower than the audio clock, so an open loop at the
// audio rate would only measure a growing backlog.

const (
	a2dpSessions    = 2
	a2dpWorkers     = 2
	a2dpTracedSends = 2   // per session, in the traced phase
	a2dpVerifySends = 2   // leading Sends per session decoded after the run
	a2dpSetupReps   = 200 // set-up is ~0.2 ms, so its median needs many samples
	// The stream's default SBC configuration (44.1 kHz stereo, 8
	// subbands, 16 blocks, bitpool 35), rebuilt here as the oracle.
	a2dpSampleRate = 44100
	// A DM1 occupies one slot, rounded up to the two-slot pair the
	// master resumes on: the stream's per-segment deadline.
	a2dpSlotBudgetMs = 1.25
	// The scheduler's fixed media-packet SSRC.
	a2dpSSRC = 0xB10EF1
)

// a2dpDevices are the sessions' links. They are fixed, as in the
// paper's §4.8 experiment: the access code rides in every segment, so a
// seeded device would change the work of the whole run, not only its
// inputs' content.
var a2dpDevices = [a2dpSessions]bluefi.Device{{LAP: 0x123456, UAP: 0x9A}, {LAP: 0x2468AC, UAP: 0x35}}

// a2dpSource is one session's seeded input: a PCM generator of two
// tones plus noise, continuous across Sends.
type a2dpSource struct {
	dev    bluefi.Device
	freq   [2]float64
	amp    [2]float64
	rng    *rand.Rand
	sample int
}

func newA2DPSources(seed int64) []*a2dpSource {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*a2dpSource, a2dpSessions)
	for i := range out {
		s := &a2dpSource{dev: a2dpDevices[i], rng: rand.New(rand.NewSource(rng.Int63()))}
		for k := range s.freq {
			s.freq[k] = 100 + 3900*rng.Float64()
			s.amp[k] = 0.2 + 0.25*rng.Float64()
		}
		out[i] = s
	}
	return out
}

// next returns the next n samples on each of ch channels.
func (s *a2dpSource) next(ch, n int) [][]float64 {
	pcm := make([][]float64, ch)
	for c := range pcm {
		pcm[c] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		t := float64(s.sample+i) / a2dpSampleRate
		for c := range pcm {
			v := 0.01 * (2*s.rng.Float64() - 1)
			for k := range s.freq {
				v += s.amp[k] * math.Sin(2*math.Pi*s.freq[k]*t+float64(c))
			}
			pcm[c][i] = v
		}
	}
	s.sample += n
	return pcm
}

type a2dpState struct {
	pool    *bluefi.Pool
	streams []*bluefi.AudioStream
}

func newA2DPState(srcs []*a2dpSource, reg *obs.Registry) (*a2dpState, error) {
	pool, err := bluefi.NewPool(bluefi.Options{Mode: bluefi.RealTime, Telemetry: reg}, a2dpWorkers)
	if err != nil {
		return nil, err
	}
	st := &a2dpState{pool: pool}
	for _, src := range srcs {
		s, err := pool.NewAudioStream(bluefi.AudioConfig{Device: src.dev, PacketType: bluefi.DM1})
		if err != nil {
			pool.Close()
			return nil, err
		}
		st.streams = append(st.streams, s)
	}
	return st, nil
}

func (st *a2dpState) close() { st.pool.Close() }

// a2dpSend is one Send, failed (err set) or not.
type a2dpSend struct {
	session, index int
	ms             float64
	err            error
	out            []*bluefi.AudioTransmission // kept only for verified Sends
	pcm            [][]float64                 // kept for every Send: the SBC oracle replays them in order
}

type a2dpPhase struct {
	sends     []a2dpSend
	segments  int
	sendsPerS float64
	elapsed   time.Duration
	failed    int
	failures  []string
	depthMean float64
	depthN    int
}

// run drives every session in a closed loop until the deadline, or for
// sendsEach Sends per session when sendsEach > 0. With keep set it
// holds on to the output of each session's leading Sends for
// verifyA2DP.
func (st *a2dpState) run(srcs []*a2dpSource, tr *tracer, deadline time.Time, sendsEach int, keep bool) a2dpPhase {
	var ph a2dpPhase
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stopSampler := sampleQueueDepth(st.pool, tr != nil)
	for s := range st.streams {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			stream, src := st.streams[s], srcs[s]
			var sends []a2dpSend
			var failures []string
			segments := 0
			for k := 0; ; k++ {
				if sendsEach > 0 && k >= sendsEach || sendsEach == 0 && !time.Now().Before(deadline) {
					break
				}
				pcm := src.next(stream.Channels(), stream.SamplesPerSend())
				root := tr.open("op", 0, 0)
				child := tr.open("AudioStream.Send", root.Trace, root.ID)
				t0 := time.Now()
				out, err := stream.Send(pcm)
				d := time.Since(t0)
				tr.close(child)
				tr.close(root)
				snd := a2dpSend{session: s, index: k, ms: ms(d), err: err, pcm: pcm}
				if err != nil {
					failures = append(failures, fmt.Sprintf("session %d send %d: %v", s, k, err))
				} else if keep && k < a2dpVerifySends {
					snd.out = out
				}
				segments += len(out)
				sends = append(sends, snd)
			}
			el := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			ph.sends = append(ph.sends, sends...)
			ph.segments += segments
			ph.failed += len(failures)
			ph.failures = append(ph.failures, failures...)
			ph.sendsPerS += float64(len(sends)-len(failures)) / el.Seconds()
		}(s)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.depthMean, ph.depthN = stopSampler()
	return ph
}

// sampleQueueDepth samples the pool's queue depth every millisecond
// until the returned stop function is called; stop returns the mean and
// the sample count. Without tracing it samples nothing.
func sampleQueueDepth(pool *bluefi.Pool, on bool) (stop func() (float64, int)) {
	if !on {
		return func() (float64, int) { return 0, 0 }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var sum, n int
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sum += pool.QueueDepth()
				n++
			}
		}
	}()
	return func() (float64, int) {
		close(done)
		wg.Wait()
		return ratio(float64(sum), float64(n)), n
	}
}

// latencies returns the successful Sends' latencies.
func (ph a2dpPhase) latencies() []float64 {
	var out []float64
	for _, s := range ph.sends {
		if s.err == nil {
			out = append(out, s.ms)
		}
	}
	return out
}

// verifyA2DP decodes every segment of the kept Sends through the
// scanner on a clean seeded channel (DESIGN.md §10): a segment whose
// rehearsal reported no mismatch must decode to exactly the bytes the
// stream meant to send, and a flagged one that decodes must too. The
// expected bytes come from an independent SBC encoder fed the same PCM.
func verifyA2DP(seed int64, srcs []*a2dpSource, sends []a2dpSend) (checked, clean int, failures []string, err error) {
	for s, src := range srcs {
		var mine []a2dpSend
		for _, snd := range sends {
			if snd.session == s {
				mine = append(mine, snd)
			}
		}
		enc, err := sbc.NewEncoder(sbc.Config{Freq: sbc.Freq44k, Mode: sbc.Stereo, Blocks: 16, Subbands: 8, Bitpool: 35, Alloc: sbc.Loudness})
		if err != nil {
			return 0, 0, nil, err
		}
		sc := scan.NewScanner(scan.Config{Seed: seed, Device: bt.Device(src.dev)})
		for k, snd := range mine {
			if snd.index != k {
				return 0, 0, nil, fmt.Errorf("a2dp verify: session %d is missing Send %d", s, k)
			}
			frame, err := enc.Encode(snd.pcm) // failed Sends advanced the stream's encoder too
			if err != nil {
				return 0, 0, nil, err
			}
			if snd.out == nil {
				continue
			}
			want, err := a2dpSegments(k, len(snd.pcm[0]), frame)
			if err != nil {
				return 0, 0, nil, err
			}
			if len(want) != len(snd.out) {
				failures = append(failures, fmt.Sprintf("session %d send %d: %d segments, want %d", s, k, len(snd.out), len(want)))
				continue
			}
			for i, tx := range snd.out {
				checked++
				m := channel.Default(18, 1.5)
				m.Seed = seed + int64(1000*s+10*k+i)
				iq, err := m.Apply(tx.Packet.Waveform())
				if err != nil {
					return 0, 0, nil, err
				}
				o := sc.Ingest(scan.Capture{Kind: scan.KindBR, Channel: tx.BTChannel, OffsetHz: tx.Packet.ChannelOffsetHz(), IQ: iq, Clk: tx.Clock})
				if o.Err != nil {
					return 0, 0, nil, o.Err
				}
				ok := o.Decoded && bytes.Equal(o.Payload, want[i])
				if tx.Packet.RehearsalMismatches == 0 {
					clean++
				}
				if !ok && (tx.Packet.RehearsalMismatches == 0 || o.Decoded) {
					failures = append(failures, fmt.Sprintf("session %d send %d segment %d: rehearsal mismatches %d, decoded %v, payload identical %v",
						s, k, i, tx.Packet.RehearsalMismatches, o.Decoded, ok))
				}
			}
		}
	}
	return checked, clean, failures, nil
}

// a2dpSegments is the expected baseband payloads of a session's k-th
// Send: one SBC frame in an AVDTP media packet in an L2CAP frame, cut
// to the DM1 payload size.
func a2dpSegments(k, samples int, frame []byte) ([][]byte, error) {
	media := &a2dp.MediaPacket{SequenceNumber: uint16(k), Timestamp: uint32(k * samples), SSRC: a2dpSSRC, Frames: [][]byte{frame}}
	payload, err := media.Marshal()
	if err != nil {
		return nil, err
	}
	wire, err := (&l2cap.Frame{CID: l2cap.CIDDynamicFirst, Payload: payload}).Marshal()
	if err != nil {
		return nil, err
	}
	return l2cap.Segment(wire, bt.DM1.MaxPayload())
}

func runA2DP(cfg config) (*report, error) {
	rep := newReport(cfg, a2dpSessions)
	srcs := newA2DPSources(cfg.seed)
	st, setupS, err := timedSetup(a2dpSetupReps, func() (*a2dpState, error) { return newA2DPState(srcs, nil) }, (*a2dpState).close)
	if err != nil {
		return nil, err
	}
	ph := st.run(srcs, nil, time.Now().Add(cfg.measureFor()), 0, true)
	st.close()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.addOps(len(ph.sends), ph.failed, ph.failures)
	lat := ph.latencies()
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	rep.endToEnd(metric{Value: setupS, N: a2dpSetupReps}, metric{Value: rss, N: 1},
		metric{Value: p50, N: len(lat)}, metric{Value: p90, N: len(lat)}, metric{Value: ph.sendsPerS, N: len(lat)})
	samples := st.streams[0].SamplesPerSend()
	rep.named("send_p50_ms", "ms", p50, len(lat))
	rep.named("audio_rtf", "audio_s/s", ph.sendsPerS*float64(samples)/a2dpSampleRate, len(lat))
	rep.named("segments", "count", float64(ph.segments), len(lat))

	checked, clean, failures, err := verifyA2DP(cfg.seed, srcs, ph.sends)
	if err != nil {
		return nil, err
	}
	rep.addChecks(checked, failures)
	rep.named("verified_segments", "count", float64(checked), checked)
	rep.named("rehearsal_clean_segments", "count", float64(clean), checked)

	if cfg.trace {
		tr := newTracer()
		tracedP50, err := traceA2DP(cfg.seed, rep, tr)
		if err != nil {
			return nil, err
		}
		rep.trace = tr
		rep.overhead(tracedP50, p50)
	}
	return rep, nil
}

// traceA2DP runs a fixed amount of traced a2dp work from the seed (two
// Sends per session on a fresh pool with a Telemetry registry), records
// the audio, pool and phase-search layers and their exact counts in rep,
// and returns the median Send latency.
func traceA2DP(seed int64, rep *report, tr *tracer) (float64, error) {
	reg := obs.NewRegistry()
	srcs := newA2DPSources(seed)
	st, err := newA2DPState(srcs, reg)
	if err != nil {
		return 0, err
	}
	d := registryDelta{before: reg.Snapshot()}
	ph := st.run(srcs, tr, time.Time{}, a2dpTracedSends, false)
	d.after = reg.Snapshot()
	jobMean, jobs := st.pool.JobLatency()
	st.close()
	rep.addOps(len(ph.sends), ph.failed, ph.failures)

	sends, segs := float64(len(ph.sends)-ph.failed), float64(ph.segments)
	candidates := d.get("bluefi_core_rehearsal_candidates_total").value
	reslots := d.get("bluefi_a2dp_reslots_total").value
	synth := d.get("bluefi_core_synth_seconds", obs.L("mode", "real-time"))
	var staged float64
	for _, stage := range []string{"iqgen", "fftqam", "fec", "scramble"} {
		staged += d.get("bluefi_core_stage_seconds", obs.L("stage", stage)).sum
	}
	slack := d.get("bluefi_audio_deadline_slack_seconds")
	segMs := a2dpSlotBudgetMs - 1e3*ratio(slack.sum, float64(slack.count))
	wall := ph.elapsed.Seconds()
	rep.layer("core.candidates_per_segment", "count", ratio(float64(candidates), segs), int(segs))
	rep.layer("core.synth_ms.a2dp", "ms", 1e3*ratio(synth.sum, float64(synth.count)), int(synth.count))
	rep.layer("core.unspanned_ms.a2dp", "ms", 1e3*ratio(synth.sum-staged, float64(synth.count)), int(synth.count))
	rep.layer("a2dp.reslots_per_segment", "count", ratio(float64(reslots), segs), int(segs))
	rep.layer("audio.segments_per_send", "count", ratio(segs, sends), int(sends))
	rep.layer("audio.segment_ms", "ms", segMs, int(slack.count))
	rep.layer("audio.slot_budget_x", "ratio", segMs/a2dpSlotBudgetMs, int(slack.count))
	rep.layer("pool.job_ms", "ms", 1e3*jobMean, int(jobs))
	rep.layer("pool.busy_share", "ratio", jobMean*float64(jobs)/(a2dpWorkers*wall), int(jobs))
	rep.layer("pool.queue_depth_mean", "count", ph.depthMean, ph.depthN)
	rep.layer("pool.queue_wait_ms", "ms", 1e3*ratio(ph.depthMean, float64(jobs)/wall), ph.depthN)
	rep.count("a2dp.sends", int64(sends))
	rep.count("a2dp.segments", int64(segs))
	rep.count("core.rehearsal_candidates", candidates)
	rep.count("a2dp.reslots", reslots)
	rep.count("core.synth_calls", synth.count)
	return quantile(ph.latencies(), 0.5), nil
}
