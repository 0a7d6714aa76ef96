package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bluefi/internal/obs"
)

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same definition as numpy's default). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// allocCounter reads the process-wide allocation counters.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocCounter{m.Mallocs, m.TotalAlloc}
}

func (a allocCounter) sub(b allocCounter) allocCounter {
	return allocCounter{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// timedSetup runs setup reps times, keeping the last result and closing
// the others, and returns the median set-up time. A run sets up several
// times because one cold set-up is too noisy to compare across commits.
func timedSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var kept T
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		d := time.Since(start)
		if err != nil {
			return kept, 0, err
		}
		secs = append(secs, d.Seconds())
		if i < reps-1 {
			teardown(v)
		} else {
			kept = v
		}
	}
	return kept, median(secs), nil
}

// span is one timed region recorded by the benchmark around a call into
// the library. Spans of one operation share a trace id; the root span is
// the operation itself.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one branch per span.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// open starts a span; parent 0 starts a new trace.
func (t *tracer) open(name string, trace, parent uint64) span {
	if t == nil {
		return span{}
	}
	id := t.ids.Add(1)
	if trace == 0 {
		trace = id
	}
	return span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}
}

// close ends s and stores it.
func (t *tracer) close(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for every span whose name starts with prefix, its
// duration minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes(prefix string) []float64 {
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, ms(s.dur()-time.Duration(covered)))
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// family reads one series of a registry snapshot: a counter or gauge
// value, or a histogram's count and sum. Labels must match exactly.
type series struct {
	value, count int64
	sum          float64
}

func readSeries(snap obs.Snapshot, name string, labels ...obs.Label) series {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if labelsEqual(m.Labels, labels) {
				return series{value: m.Value, count: m.Count, sum: m.Sum}
			}
		}
	}
	return series{}
}

func labelsEqual(a, b []obs.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// registryDelta reads series from two snapshots of one registry and
// returns after − before.
type registryDelta struct{ before, after obs.Snapshot }

func (d registryDelta) get(name string, labels ...obs.Label) series {
	a, b := readSeries(d.after, name, labels...), readSeries(d.before, name, labels...)
	return series{value: a.value - b.value, count: a.count - b.count, sum: a.sum - b.sum}
}

// ratio divides, returning 0 when the base is empty (the layer did no
// work in this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (a allocCounter) add(b allocCounter) allocCounter {
	return allocCounter{a.mallocs + b.mallocs, a.bytes + b.bytes}
}
