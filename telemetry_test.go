package bluefi_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"bluefi"
)

// famTotal sums the Value of every series in a counter/gauge family.
func famTotal(reg *bluefi.Telemetry, name string) int64 {
	for _, fam := range reg.Snapshot().Families {
		if fam.Name != name {
			continue
		}
		var total int64
		for _, m := range fam.Metrics {
			total += m.Value
		}
		return total
	}
	return 0
}

// famCount sums histogram observation counts across a family's series.
func famCount(reg *bluefi.Telemetry, name string) int64 {
	for _, fam := range reg.Snapshot().Families {
		if fam.Name != name {
			continue
		}
		var total int64
		for _, m := range fam.Metrics {
			total += m.Count
		}
		return total
	}
	return 0
}

// TestTelemetryPoolStress drives a telemetry-attached Pool from several
// goroutines (the -race coverage for concurrent recording through real
// hot paths), then checks the pool gauges/counters balance and that the
// output is identical to an untracked pool's — telemetry must never
// perturb synthesis.
func TestTelemetryPoolStress(t *testing.T) {
	reg := bluefi.NewTelemetry()
	opts := bluefi.Options{Chip: bluefi.RTL8811AU, Mode: bluefi.RealTime, Telemetry: reg}
	jobs := mixedJobs()
	goroutines, rounds := 3, 2
	if testing.Short() {
		jobs = jobs[:3]
		goroutines, rounds = 2, 1
	}

	ref, err := bluefi.New(bluefi.Options{Chip: bluefi.RTL8811AU, Mode: bluefi.RealTime})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(jobs))
	for i, job := range jobs {
		res := serialJob(ref, job)
		if res.Err != nil {
			t.Fatalf("serial reference job %d: %v", i, res.Err)
		}
		want[i] = res.Packet.PSDU
	}

	pool, err := bluefi.NewPool(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, res := range pool.SynthesizeBatch(jobs) {
					if res.Err != nil {
						t.Errorf("job %d: %v", i, res.Err)
						return
					}
					if !bytes.Equal(res.Packet.PSDU, want[i]) {
						t.Errorf("job %d: PSDU differs with telemetry attached", i)
						return
					}
				}
			}
		}()
	}
	// Concurrent scrapes while the batches run.
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus during load: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	scraper.Wait()

	wantJobs := int64(goroutines * rounds * len(jobs))
	if got := famTotal(reg, "bluefi_pool_jobs_total"); got != wantJobs {
		t.Errorf("jobs_total = %d, want %d", got, wantJobs)
	}
	if got := famTotal(reg, "bluefi_pool_queue_depth"); got != 0 {
		t.Errorf("queue_depth = %d after drain, want 0", got)
	}
	if got := famTotal(reg, "bluefi_pool_jobs_inflight"); got != 0 {
		t.Errorf("jobs_inflight = %d after drain, want 0", got)
	}
	if got := famTotal(reg, "bluefi_pool_workers"); got != 4 {
		t.Errorf("workers = %d, want 4", got)
	}
	if got := famCount(reg, "bluefi_pool_job_seconds"); got != wantJobs {
		t.Errorf("job_seconds count = %d, want %d", got, wantJobs)
	}
	if got := famCount(reg, "bluefi_core_stage_seconds"); got == 0 {
		t.Error("no stage observations reached the registry")
	}
	if got := famTotal(reg, "bluefi_core_synth_total"); got == 0 {
		t.Error("no synth completions reached the registry")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE bluefi_pool_jobs_total counter",
		"# TYPE bluefi_core_stage_seconds histogram",
		`bluefi_core_stage_seconds_bucket{stage="fec"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Prometheus export missing %q", want)
		}
	}
}

// TestTelemetryAudioScheduler streams audio through a telemetry-attached
// pool and checks the scheduler and deadline metrics: every segment gets
// a slot and a slack observation, and the output still matches the
// untracked serial stream.
func TestTelemetryAudioScheduler(t *testing.T) {
	cfg := bluefi.AudioConfig{
		Device:          bluefi.Device{LAP: 3, UAP: 4},
		PacketType:      bluefi.DM1,
		SBC:             bluefi.SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 8},
		FramesPerPacket: 1,
	}
	plain, err := bluefi.New(bluefi.Options{Mode: bluefi.RealTime})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plain.NewAudioStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := bluefi.NewTelemetry()
	pool, err := bluefi.NewPool(bluefi.Options{Mode: bluefi.RealTime, Telemetry: reg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pooled, err := pool.NewAudioStream(cfg)
	if err != nil {
		t.Fatal(err)
	}

	segments := int64(0)
	for send := 0; send < 2; send++ {
		wantTxs, err := serial.Send(testTone(serial, send*serial.SamplesPerSend()))
		if err != nil {
			t.Fatal(err)
		}
		gotTxs, err := pooled.Send(testTone(pooled, send*pooled.SamplesPerSend()))
		if err != nil {
			t.Fatal(err)
		}
		if len(gotTxs) != len(wantTxs) {
			t.Fatalf("send %d: %d segments, want %d", send, len(gotTxs), len(wantTxs))
		}
		segments += int64(len(gotTxs))
		for i := range wantTxs {
			if !bytes.Equal(gotTxs[i].Packet.PSDU, wantTxs[i].Packet.PSDU) {
				t.Errorf("send %d segment %d: PSDU differs with telemetry attached", send, i)
			}
		}
	}

	if got := famCount(reg, "bluefi_audio_deadline_slack_seconds"); got != segments {
		t.Errorf("deadline slack observations = %d, want %d", got, segments)
	}
	slots := famTotal(reg, "bluefi_a2dp_slots_total")
	reslots := famTotal(reg, "bluefi_a2dp_reslots_total")
	if slots < segments {
		t.Errorf("slots_total = %d, want >= %d segments", slots, segments)
	}
	if slots != segments+reslots {
		t.Errorf("slots_total = %d, want segments(%d) + reslots(%d)", slots, segments, reslots)
	}
	if late := famTotal(reg, "bluefi_audio_frames_late_total"); late > segments {
		t.Errorf("frames_late = %d exceeds %d segments", late, segments)
	}
	if got := famTotal(reg, "bluefi_viterbi_rt_inversions_total"); got == 0 {
		t.Error("real-time mode recorded no viterbi inversions")
	}
}
