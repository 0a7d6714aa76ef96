package main

// Benchmark regression harness (-bench-json): runs the §4.8
// packet-generation benches and the Fig 9/10 harnesses under
// testing.Benchmark and writes BENCH_*.json with ns/op and allocs/op —
// a committed-format snapshot that successive changes diff against.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"bluefi"
	"bluefi/internal/bt"
	"bluefi/internal/core"
	"bluefi/internal/eval"
	"bluefi/internal/gfsk"
)

// benchResult is one row of the JSON snapshot.
type benchResult struct {
	Name        string  `json:"name"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
}

// stageRow is one per-stage timing entry of the §4.8 scenario, read from
// the telemetry registry by eval.Sec48Timings. Stage "synth" is the
// whole core.synth span, so the unspanned share is synth minus the
// other stages of the same (mode, packet).
type stageRow struct {
	Mode    string  `json:"mode"`
	Packet  string  `json:"packet"`
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	MeanNs  float64 `json:"meanNs"`
	TotalNs float64 `json:"totalNs"`
}

type benchSnapshot struct {
	Generated string        `json:"generated"`
	GoVersion string        `json:"goVersion"`
	NumCPU    int           `json:"numCPU"`
	Results   []benchResult `json:"results"`
	Stages    []stageRow    `json:"stageBreakdown"`
}

func record(out *benchSnapshot, name string, fn func(b *testing.B)) {
	r := testing.Benchmark(fn)
	out.Results = append(out.Results, benchResult{
		Name:        name,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	})
	fmt.Printf("  %-44s %12.0f ns/op %10d allocs/op (n=%d, P=%d)\n",
		name, out.Results[len(out.Results)-1].NsPerOp, r.AllocsPerOp(), r.N, runtime.GOMAXPROCS(0))
}

// sec48Bench mirrors bench_test.go's §4.8 scenario: PSDU-only synthesis
// of a DM packet, one synthesizer per goroutine.
func sec48Bench(mode core.Mode, payloadLen int, pt bt.PacketType, parallel bool) func(b *testing.B) {
	return func(b *testing.B) {
		opts := eval.Sec48Options(mode)
		pkt := &bt.Packet{Type: pt, LTAddr: 1, Payload: make([]byte, payloadLen)}
		air, err := pkt.AirBits(eval.Sec48Device)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				s, err := core.New(opts)
				if err != nil {
					b.Error(err)
					return
				}
				for pb.Next() {
					if _, err := s.Synthesize(air, eval.Sec48FrequencyMHz); err != nil {
						b.Error(err)
						return
					}
				}
			})
			return
		}
		s, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := s.Synthesize(air, eval.Sec48FrequencyMHz); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// phaseSearchBench isolates the rehearsal-scored search: full synthesis
// of a beacon with the candidate search.
func phaseSearchBench() func(b *testing.B) {
	return func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.GFSK = gfsk.BLEConfig()
		s, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		ib := bluefi.IBeacon{Major: 3}
		adv := &bt.Advertisement{PDUType: bt.AdvNonconnInd, AdvA: [6]byte{1, 2, 3, 4, 5, 6}, Data: ib.ADStructures()}
		air, err := adv.AirBits(38)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Synthesize(air, 2426); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func fig9Bench(parallelism int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := eval.DefaultFig9()
			cfg.PacketsPerChannel = 2
			cfg.Parallelism = parallelism
			if _, err := eval.Fig9SingleSlotPER(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func fig10Bench() func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := eval.DefaultFig10()
			cfg.Packets = 4
			if _, err := eval.Fig10AudioPER(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func poolBeaconBench() func(b *testing.B) {
	return func(b *testing.B) {
		pool, err := bluefi.NewPool(bluefi.Options{Chip: bluefi.RTL8811AU, Mode: bluefi.RealTime}, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		const batch = 8
		jobs := make([]bluefi.BeaconJob, batch)
		for i := range jobs {
			ib := bluefi.IBeacon{Major: uint16(i + 1)}
			jobs[i] = bluefi.BeaconJob{ADStructures: ib.ADStructures(), Addr: [6]byte{1, 2, 3, 4, 5, byte(i)}, BLEChannel: 38}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			for _, res := range pool.BeaconBatch(jobs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	}
}

// stageRows flattens §4.8 timing results into snapshot rows: one
// "synth" row per (mode, packet), then one row per stage.
func stageRows(results []eval.TimingResult) []stageRow {
	var rows []stageRow
	for _, r := range results {
		for _, h := range append([]eval.HistogramTotal{r.Synth}, r.Stages...) {
			var mean time.Duration
			if h.Count > 0 {
				mean = h.Sum / time.Duration(h.Count)
			}
			rows = append(rows, stageRow{
				Mode:    r.Mode,
				Packet:  r.Packet,
				Stage:   h.Name,
				Count:   h.Count,
				MeanNs:  float64(mean.Nanoseconds()),
				TotalNs: float64(h.Sum.Nanoseconds()),
			})
		}
	}
	return rows
}

// allocGateTolerance is how far sec48 allocs/op may drift above the
// committed BENCH_eval.json snapshot before the gate fails.
const allocGateTolerance = 1.05

// runAllocGate re-measures the §4.8 real-time 1-slot scenario and fails
// when its allocs/op exceeds the committed snapshot's
// "sec48/realtime-1slot-cpu1" row by more than 5% — the regression gate
// behind the //bluefi:allocfree hot-path contract. Improvements print a
// reminder to re-snapshot but do not fail.
func runAllocGate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading snapshot: %w (run `make bench-json` to create it)", err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	const row = "sec48/realtime-1slot-cpu1"
	var committed int64 = -1
	for _, r := range snap.Results {
		if r.Name == row {
			committed = r.AllocsPerOp
		}
	}
	if committed < 0 {
		return fmt.Errorf("%s has no %q row", path, row)
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	r := testing.Benchmark(sec48Bench(core.RealTime, 17, bt.DM1, false))
	got := r.AllocsPerOp()
	limit := int64(float64(committed) * allocGateTolerance)
	fmt.Printf("alloc-gate: %s measured %d allocs/op, snapshot %d (limit %d)\n",
		row, got, committed, limit)
	if got > limit {
		return fmt.Errorf("allocs/op regressed: %d > %d (snapshot %d +5%%); fix the regression or re-snapshot with `make bench-json` and justify the diff",
			got, limit, committed)
	}
	if got < committed*95/100 {
		fmt.Printf("alloc-gate: improvement detected (%d → %d); consider re-snapshotting with `make bench-json`\n",
			committed, got)
	}
	return nil
}

// runBenchJSON executes the suite at GOMAXPROCS 1 and 4 (the -cpu 1,4
// comparison: serial baseline versus the concurrency layer) and merges
// the rows into the snapshot, keeping the keys other modes appended.
func runBenchJSON(path string) error {
	snap := &benchSnapshot{
		Generated: time.Now().UTC().Format(time.RFC3339), //bluefi:nondeterministic-ok snapshot provenance timestamp in BENCH_eval.json
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		tag := fmt.Sprintf("-cpu%d", procs)
		fmt.Printf("bench-json at GOMAXPROCS=%d:\n", procs)
		record(snap, "sec48/quality-1slot"+tag, sec48Bench(core.Quality, 17, bt.DM1, false))
		record(snap, "sec48/quality-5slot"+tag, sec48Bench(core.Quality, 224, bt.DM5, false))
		record(snap, "sec48/realtime-1slot"+tag, sec48Bench(core.RealTime, 17, bt.DM1, false))
		record(snap, "sec48/realtime-5slot"+tag, sec48Bench(core.RealTime, 224, bt.DM5, false))
		record(snap, "sec48/realtime-1slot-throughput"+tag, sec48Bench(core.RealTime, 17, bt.DM1, true))
		record(snap, "phase-search/serial"+tag, phaseSearchBench())
		record(snap, "fig9/serial"+tag, fig9Bench(1))
		record(snap, "fig9/parallel"+tag, fig9Bench(4))
		record(snap, "fig10/audio"+tag, fig10Bench())
		record(snap, "pool/beacon-batch"+tag, poolBeaconBench())
	}

	timings, err := eval.Sec48Timings(10)
	if err != nil {
		return err
	}
	snap.Stages = stageRows(timings)
	fmt.Printf("stage breakdown (telemetry-sourced, 10 iterations):\n")
	for _, r := range snap.Stages {
		fmt.Printf("  %-10s %-14s %-9s %12.0f ns mean (n=%d)\n", r.Mode, r.Packet, r.Stage, r.MeanNs, r.Count)
	}

	err = mergeBenchJSON(path, func(doc map[string]any) {
		doc["generated"] = snap.Generated
		doc["goVersion"] = snap.GoVersion
		doc["numCPU"] = snap.NumCPU
		doc["results"] = snap.Results
		doc["stageBreakdown"] = snap.Stages
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(snap.Results))
	return nil
}

// mergeBenchJSON rewrites the benchmark JSON at path with update applied
// to its top-level keys. Each bluefi-eval mode owns a few keys and leaves
// every other key untouched, so the snapshot accumulates the bench rows,
// soak curves and scenario reports side by side.
func mergeBenchJSON(path string, update func(doc map[string]any)) error {
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing %s is not JSON: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	update(doc)
	data, err := json.MarshalIndent(doc, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
