package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"bluefi"
	"bluefi/internal/fleet"
	"bluefi/internal/obs"
)

// fleet-churn: two closed-loop HTTP clients against fleet.Handler on a
// loopback listener. Set-up fills the cache with a few unique Quality
// beacons; the timed mix then registers, updates and expires batches of
// beacons drawn from those payloads, so every timed lookup is a cache
// hit and the serving plane does all the work.

const (
	fleetAPs          = 2
	fleetClients      = 2
	fleetPayloads     = 4   // unique iBeacon payloads, synthesized in set-up
	fleetBatch        = 64  // beacons per bulk request: serving work, not loopback transport, dominates
	fleetIDsPerClient = 256 // live set bound per client, far below the airtime cap
	fleetSetupReps    = 3
	fleetTracedReqs   = 2000 // per client, in the traced phase
)

// fleetPayload is one unique advertisement: the cache key is derived
// from the AD bytes and the address.
type fleetPayload struct {
	ad   []byte
	addr fleet.BDAddr
}

func newFleetPayloads(seed int64) []fleetPayload {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fleetPayload, fleetPayloads)
	for i := range out {
		var ib bluefi.IBeacon
		rng.Read(ib.UUID[:])
		ib.Major, ib.Minor = uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
		ib.MeasuredPower = int8(-40 - rng.Intn(40))
		out[i].ad = ib.ADStructures()
		rng.Read(out[i].addr[:])
	}
	return out
}

type fleetState struct {
	f       *fleet.Fleet
	srv     *http.Server
	served  chan error
	base    string
	clients []*http.Client
	// misses after the cold fill: one per unique payload
	setupMisses uint64
}

// tracedHandler wraps fleet.Handler in a span whose parent is the
// client span named in the request headers.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

const traceHeader, spanHeader = "X-Bench-Trace", "X-Bench-Span"

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	s := h.tr.open("fleet.Handler", trace, parent)
	h.next.ServeHTTP(w, r)
	h.tr.close(s)
}

// newFleetState builds the fleet and its loopback server, opens one
// connection per client and registers one beacon per payload (the cold
// fill, synthesized through the shard pools).
func newFleetState(payloads []fleetPayload, reg *obs.Registry, tr *tracer) (*fleetState, error) {
	f, err := fleet.New(fleet.Config{APs: fleetAPs, Synth: bluefi.Options{Telemetry: reg}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = f.Shutdown(context.Background())
		return nil, err
	}
	var h http.Handler = fleet.Handler(f)
	if tr != nil {
		h = tracedHandler{h, tr}
	}
	st := &fleetState{f: f, srv: &http.Server{Handler: h}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { st.served <- st.srv.Serve(ln) }()
	for i := 0; i < fleetClients; i++ {
		st.clients = append(st.clients, &http.Client{Transport: &http.Transport{
			Proxy: nil, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	regs := make([]fleet.Registration, len(payloads))
	for i, p := range payloads {
		regs[i] = fleet.Registration{ID: fmt.Sprintf("seed-%d", i), AP: i % fleetAPs, AD: p.ad, Addr: p.addr}
	}
	body, err := json.Marshal(fleet.RegisterRequest{Beacons: regs})
	if err != nil {
		st.close()
		return nil, err
	}
	var resp fleet.BulkResponse
	if err := st.call(st.clients[0], "/fleet/register", body, &resp); err != nil {
		st.close()
		return nil, fmt.Errorf("cold fill: %w", err)
	}
	if resp.OK != len(regs) {
		st.close()
		return nil, fmt.Errorf("cold fill: %d of %d registrations failed: %+v", resp.Failed, len(regs), resp.Results)
	}
	st.setupMisses = f.CacheStats().Misses
	for _, c := range st.clients[1:] {
		if err := st.call(c, "/fleet/stats", nil, nil); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// call sends one untimed request and decodes the reply into out.
func (st *fleetState) call(c *http.Client, path string, body []byte, out any) error {
	req, err := newFleetRequest(st.base, path, body)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func newFleetRequest(base, path string, body []byte) (*http.Request, error) {
	if body == nil {
		return http.NewRequest(http.MethodGet, base+path, nil)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func (st *fleetState) close() {
	_ = st.srv.Close()
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: fleet server:", err)
	}
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
	_ = st.f.Shutdown(context.Background())
}

// fleetClient is one closed-loop client's seeded request generator.
// Beacon IDs are recycled: register takes IDs from free, expire returns
// them, so the live set stays within fleetIDsPerClient.
type fleetClient struct {
	id         int
	rng        *rand.Rand
	free, live []string
	ap         map[string]int
}

func newFleetClient(seed int64, id int) *fleetClient {
	c := &fleetClient{id: id, rng: rand.New(rand.NewSource(seed*31 + int64(id) + 1)), ap: map[string]int{}}
	for i := 0; i < fleetIDsPerClient; i++ {
		c.free = append(c.free, fmt.Sprintf("c%d-%d", id, i))
	}
	return c
}

// take removes n random IDs from *from and returns them.
func (c *fleetClient) take(from *[]string, n int) []string {
	out := make([]string, n)
	for i := range out {
		j := c.rng.Intn(len(*from))
		out[i] = (*from)[j]
		(*from)[j] = (*from)[len(*from)-1]
		*from = (*from)[:len(*from)-1]
	}
	return out
}

// next draws the next request: a tenth are stats reads, the rest split
// evenly between register, update and expire, switching to register or
// expire when the live set is too small or too large for the batch.
func (c *fleetClient) next(payloads []fleetPayload) (kind, path string, body []byte, err error) {
	r := c.rng.Intn(10)
	switch {
	case r == 0:
		return "stats", "/fleet/stats", nil, nil
	case r <= 3:
		kind = "register"
	case r <= 6:
		kind = "update"
	default:
		kind = "expire"
	}
	if kind == "register" && len(c.free) < fleetBatch {
		kind = "expire"
	}
	if kind != "register" && len(c.live) < fleetBatch {
		kind = "register"
	}
	switch kind {
	case "register", "update":
		var ids []string
		if kind == "register" {
			ids = c.take(&c.free, fleetBatch)
		} else {
			ids = c.take(&c.live, fleetBatch)
		}
		regs := make([]fleet.Registration, len(ids))
		for i, id := range ids {
			if kind == "register" {
				c.ap[id] = c.rng.Intn(fleetAPs)
			}
			p := payloads[c.rng.Intn(len(payloads))]
			regs[i] = fleet.Registration{ID: id, AP: c.ap[id], AD: p.ad, Addr: p.addr}
		}
		c.live = append(c.live, ids...)
		body, err = json.Marshal(fleet.RegisterRequest{Beacons: regs})
	default:
		ids := c.take(&c.live, fleetBatch)
		refs := make([]fleet.BeaconRef, len(ids))
		for i, id := range ids {
			refs[i] = fleet.BeaconRef{ID: id, AP: c.ap[id]}
		}
		c.free = append(c.free, ids...)
		body, err = json.Marshal(fleet.ExpireRequest{Beacons: refs})
	}
	return kind, "/fleet/" + kind, body, err
}

type fleetPhase struct {
	reqMs       []float64
	regLatMs    []float64
	queueMax    int
	requests    int
	failed      int
	failures    []string
	elapsed     time.Duration
	allocs      allocCounter
	cacheBefore fleet.CacheStats
	cacheAfter  fleet.CacheStats
}

// run drives every client in a closed loop until the deadline, or for
// reqsEach requests per client when reqsEach > 0.
func (st *fleetState) run(seed int64, payloads []fleetPayload, tr *tracer, deadline time.Time, reqsEach int, countAllocs bool) fleetPhase {
	var ph fleetPhase
	var mu sync.Mutex
	var wg sync.WaitGroup
	ph.cacheBefore = st.f.CacheStats()
	var a0 allocCounter
	if countAllocs {
		a0 = readAllocs()
	}
	start := time.Now()
	for i, hc := range st.clients {
		wg.Add(1)
		go func(i int, hc *http.Client) {
			defer wg.Done()
			c := newFleetClient(seed, i)
			var local fleetPhase
			for k := 0; ; k++ {
				if reqsEach > 0 && k >= reqsEach || reqsEach == 0 && !time.Now().Before(deadline) {
					break
				}
				local.requests++
				if err := st.request(c, hc, payloads, tr, &local); err != nil {
					local.failed++
					if len(local.failures) < 8 {
						local.failures = append(local.failures, fmt.Sprintf("client %d request %d: %v", i, k, err))
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ph.reqMs = append(ph.reqMs, local.reqMs...)
			ph.regLatMs = append(ph.regLatMs, local.regLatMs...)
			ph.queueMax = max(ph.queueMax, local.queueMax)
			ph.requests += local.requests
			ph.failed += local.failed
			ph.failures = append(ph.failures, local.failures...)
		}(i, hc)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	if countAllocs {
		ph.allocs = readAllocs().sub(a0)
	}
	ph.cacheAfter = st.f.CacheStats()
	return ph
}

// request sends the client's next request, times it, and checks the
// reply: HTTP 200, every entry OK, every register and update a cache
// hit.
func (st *fleetState) request(c *fleetClient, hc *http.Client, payloads []fleetPayload, tr *tracer, ph *fleetPhase) error {
	kind, path, body, err := c.next(payloads)
	if err != nil {
		return err
	}
	req, err := newFleetRequest(st.base, path, body)
	if err != nil {
		return err
	}
	root := tr.open("op", 0, 0)
	cs := tr.open("client."+kind, root.Trace, root.ID)
	if tr != nil {
		req.Header.Set(traceHeader, strconv.FormatUint(cs.Trace, 10))
		req.Header.Set(spanHeader, strconv.FormatUint(cs.ID, 10))
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	tr.close(cs)
	tr.close(root)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", kind, resp.StatusCode, bytes.TrimSpace(data))
	}
	ph.reqMs = append(ph.reqMs, ms(d))
	if kind == "stats" {
		var snap struct {
			Shards []struct {
				QueueDepth int `json:"queueDepth"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		if len(snap.Shards) != fleetAPs {
			return fmt.Errorf("stats: %d shards, want %d", len(snap.Shards), fleetAPs)
		}
		for _, s := range snap.Shards {
			ph.queueMax = max(ph.queueMax, s.QueueDepth)
		}
		return nil
	}
	var bulk fleet.BulkResponse
	if err := json.Unmarshal(data, &bulk); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	if len(bulk.Results) != fleetBatch || bulk.OK != fleetBatch {
		return fmt.Errorf("%s: %d of %d entries OK: %+v", kind, bulk.OK, fleetBatch, bulk.Results)
	}
	for _, r := range bulk.Results {
		if kind == "expire" {
			continue
		}
		if r.CacheOutcome != "hit" {
			return fmt.Errorf("%s %s: cache %s, want hit", kind, r.ID, r.CacheOutcome)
		}
		if tr != nil {
			ph.regLatMs = append(ph.regLatMs, 1e3*r.LatencySeconds)
		}
	}
	return nil
}

func runFleet(cfg config) (*report, error) {
	rep := newReport(cfg, fleetClients)
	payloads := newFleetPayloads(cfg.seed)
	st, setupS, err := timedSetup(fleetSetupReps, func() (*fleetState, error) { return newFleetState(payloads, nil, nil) }, (*fleetState).close)
	if err != nil {
		return nil, err
	}
	ph := st.run(cfg.seed, payloads, nil, time.Now().Add(cfg.measureFor()), 0, cfg.trace)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	st.close()
	rep.addOps(ph.requests, ph.failed, ph.failures)
	var checks []string
	if m := ph.cacheAfter.Misses - ph.cacheBefore.Misses; m != 0 {
		checks = append(checks, fmt.Sprintf("%d cache misses in the timed phase, want 0", m))
	}
	rep.addChecks(1, checks)

	p50, p99 := quantile(ph.reqMs, 0.5), quantile(ph.reqMs, 0.99)
	rate := float64(ph.requests) / ph.elapsed.Seconds()
	rep.endToEnd(metric{Value: setupS, N: fleetSetupReps}, metric{Value: rss, N: 1},
		metric{Value: p50, N: len(ph.reqMs)}, metric{Value: p99, N: len(ph.reqMs)}, metric{Value: rate, N: ph.requests})
	rep.named("req_p50_ms", "ms", p50, len(ph.reqMs))
	rep.named("req_p99_ms", "ms", p99, len(ph.reqMs))
	rep.named("req_per_s", "1/s", rate, ph.requests)

	if cfg.trace {
		reg := obs.NewRegistry()
		tr := newTracer()
		tst, err := newFleetState(payloads, reg, tr)
		if err != nil {
			return nil, err
		}
		tr.spans = tr.spans[:0] // keep the timed phase's spans only
		tph := tst.run(cfg.seed, payloads, tr, time.Time{}, fleetTracedReqs, false)
		tst.close()
		rep.addOps(tph.requests, tph.failed, tph.failures)
		rep.trace = tr
		rep.overhead(quantile(tph.reqMs, 0.5), p50)

		kindOf := map[uint64]string{}
		for _, s := range tr.spans {
			if len(s.Name) > 7 && s.Name[:7] == "client." {
				kindOf[s.ID] = s.Name[7:]
			}
		}
		serve := map[string][]float64{}
		var all []float64
		for _, s := range tr.named("fleet.Handler") {
			serve[kindOf[s.Parent]] = append(serve[kindOf[s.Parent]], ms(s.dur()))
			all = append(all, ms(s.dur()))
		}
		rep.layer("fleet.serve_p50_ms", "ms", quantile(all, 0.5), len(all))
		rep.layer("fleet.serve_p99_ms", "ms", quantile(all, 0.99), len(all))
		for _, kind := range []string{"register", "update", "expire", "stats"} {
			rep.layer("fleet.serve_p50_ms."+kind, "ms", quantile(serve[kind], 0.5), len(serve[kind]))
		}
		transport := tr.selfTimes("client.")
		rep.layer("client.transport_p50_ms", "ms", quantile(transport, 0.5), len(transport))
		rep.layer("fleet.register_latency_p50_ms", "ms", quantile(tph.regLatMs, 0.5), len(tph.regLatMs))
		hits := tph.cacheAfter.Hits - tph.cacheBefore.Hits
		lookups := hits + tph.cacheAfter.Misses - tph.cacheBefore.Misses + tph.cacheAfter.Coalesced - tph.cacheBefore.Coalesced
		rep.layer("fleet.cache_hit_ratio", "ratio", ratio(float64(hits), float64(lookups)), int(lookups))
		rep.layer("fleet.cache_misses_setup", "count", float64(tst.setupMisses), 1)
		rejects := readSeries(reg.Snapshot(), "bluefi_fleet_budget_rejects_total").value
		rep.layer("fleet.budget_rejects", "count", float64(rejects), tph.requests)
		rep.layer("fleet.queue_depth_max", "count", float64(tph.queueMax), tph.requests)
		rep.layer("fleet.allocs_per_req", "count", ratio(float64(ph.allocs.mallocs), float64(ph.requests)), ph.requests)
		rep.layer("fleet.alloc_bytes_per_req", "B", ratio(float64(ph.allocs.bytes), float64(ph.requests)), ph.requests)
		rep.count("fleet.cache_misses_setup", int64(tst.setupMisses))
		rep.count("fleet.budget_rejects", rejects)
		rep.count("fleet.requests", int64(tph.requests))
	}
	return rep, nil
}
