package obs

import (
	"context"
	"fmt"
	"runtime/pprof"
	"testing"
	"time"
)

// TestSpanDisabled: without a registry in the context, StartSpan returns
// the same context and End still measures a real duration — the path
// audio slack and fleet LatencySeconds depend on when telemetry is off.
func TestSpanDisabled(t *testing.T) {
	ctx := context.Background()
	nctx, sp := StartSpan(ctx, "core.iqgen")
	if nctx != ctx {
		t.Fatal("disabled StartSpan changed the context")
	}
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Fatalf("disabled span measured %v, want >= 1ms", d)
	}
}

// TestSpanNesting: child spans inherit the trace ID, link to their
// parent, and the ring records both with correct linkage.
func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)

	pctx, parent := StartSpan(ctx, "core.synth")
	cctx, child := StartSpan(pctx, "fec.invert", L("mode", "rt"))
	_, grand := StartSpan(cctx, "viterbi.decode")
	grand.End()
	child.End()
	parent.End()

	spans := r.RecentSpans()
	if len(spans) != 3 {
		t.Fatalf("want 3 recorded spans, got %d", len(spans))
	}
	g, c, p := spans[0], spans[1], spans[2] // End order: innermost first
	if p.Name != "core.synth" || c.Name != "fec.invert" || g.Name != "viterbi.decode" {
		t.Fatalf("unexpected names/order: %q %q %q", g.Name, c.Name, p.Name)
	}
	if p.ParentID != 0 {
		t.Fatalf("root span has parent %d", p.ParentID)
	}
	if c.ParentID != p.SpanID || g.ParentID != c.SpanID {
		t.Fatalf("broken linkage: parent=%d child.parent=%d child=%d grand.parent=%d",
			p.SpanID, c.ParentID, c.SpanID, g.ParentID)
	}
	if c.TraceID != p.TraceID || g.TraceID != p.TraceID {
		t.Fatal("children did not inherit the trace ID")
	}
	if len(c.Attrs) != 1 || c.Attrs[0] != L("mode", "rt") {
		t.Fatalf("attrs lost: %+v", c.Attrs)
	}
}

// TestSpanPprofLabels: StartSpan sets the goroutine's bluefi_span pprof
// label, nested spans override it, and End restores the enclosing
// span's label (and clears it at the root).
func TestSpanPprofLabels(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)

	pctx, parent := StartSpan(ctx, "outer")
	if v, ok := pprof.Label(pctx, PprofLabelKey); !ok || v != "outer" {
		t.Fatalf("outer span ctx label = %q,%v", v, ok)
	}
	cctx, child := StartSpan(pctx, "inner")
	if v, ok := pprof.Label(cctx, PprofLabelKey); !ok || v != "inner" {
		t.Fatalf("inner span ctx label = %q,%v", v, ok)
	}
	child.End()
	if v, ok := pprof.Label(pctx, PprofLabelKey); !ok || v != "outer" {
		t.Fatalf("after child End, parent ctx label = %q,%v", v, ok)
	}
	parent.End()
	if _, ok := pprof.Label(ctx, PprofLabelKey); ok {
		t.Fatal("root context unexpectedly labeled")
	}
}

// TestSpanRingBounds: the ring holds at most its capacity and returns
// the most recent records oldest-first.
func TestSpanRingBounds(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(4)
	ctx := WithRegistry(context.Background(), r)
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("s%d", i))
		sp.End()
	}
	spans := r.RecentSpans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("s%d", 6+i); sp.Name != want {
			t.Fatalf("spans[%d] = %q, want %q", i, sp.Name, want)
		}
	}
}

// TestSpanCrossGoroutine: a span context passed to another goroutine
// parents that goroutine's spans (the search-worker pattern in core).
func TestSpanCrossGoroutine(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	pctx, parent := StartSpan(ctx, "core.search")
	done := make(chan SpanRecord)
	go func() {
		_, sp := StartSpan(pctx, "core.worker")
		sp.End()
		spans := r.RecentSpans()
		done <- spans[len(spans)-1]
	}()
	w := <-done
	parent.End()
	spans := r.RecentSpans()
	p := spans[len(spans)-1]
	if w.ParentID != p.SpanID || w.TraceID != p.TraceID {
		t.Fatalf("cross-goroutine linkage broken: worker parent=%d trace=%d, parent span=%d trace=%d",
			w.ParentID, w.TraceID, p.SpanID, p.TraceID)
	}
}

// TestSpanConcurrent: many goroutines opening/closing spans while a
// reader drains RecentSpans — race coverage for the ring.
func TestSpanConcurrent(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.RecentSpans()
			}
		}
	}()
	const workers = 8
	finished := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 500; i++ {
				c, sp := StartSpan(ctx, "stress")
				_, inner := StartSpan(c, "stress.inner")
				inner.End()
				sp.End()
			}
			finished <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-finished
	}
	close(done)
	if got := len(r.RecentSpans()); got != defaultTraceCapacity {
		t.Fatalf("ring has %d records, want full capacity %d", got, defaultTraceCapacity)
	}
}
